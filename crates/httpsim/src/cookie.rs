//! Cookies: `Cookie` request headers, `Set-Cookie` response headers, and a
//! client-side [`CookieJar`].
//!
//! Web-based tracking in the paper rests on cookie IDs and cookie matching
//! (§4.2, citing Bashir et al.), so the browser model needs a faithful
//! enough jar: domain/path scoping, host-only vs domain cookies,
//! and "private mode" semantics (the study browsed in private mode, so
//! each session starts with an empty jar that is discarded afterwards).

use std::fmt;

/// A single name=value cookie as sent in a `Cookie` request header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
}

impl Cookie {
    /// Create a cookie.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Cookie {
            name: name.into(),
            value: value.into(),
        }
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A parsed `Set-Cookie` response header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetCookie {
    /// The cookie being set.
    pub cookie: Cookie,
    /// `Domain` attribute (without leading dot), if present. Absent means
    /// host-only.
    pub domain: Option<String>,
    /// `Path` attribute; defaults to `/`.
    pub path: String,
    /// `Secure` attribute: only sent over HTTPS.
    pub secure: bool,
    /// `HttpOnly` attribute (informational; the jar always stores it).
    pub http_only: bool,
    /// `Max-Age` in seconds, if present. `Some(0)` or negative requests
    /// deletion.
    pub max_age: Option<i64>,
}

impl SetCookie {
    /// Build a simple session cookie header value.
    pub fn session(name: impl Into<String>, value: impl Into<String>) -> Self {
        SetCookie {
            cookie: Cookie::new(name, value),
            domain: None,
            path: "/".into(),
            secure: false,
            http_only: false,
            max_age: None,
        }
    }

    /// Set the `Domain` attribute (builder style).
    pub fn with_domain(mut self, domain: &str) -> Self {
        self.domain = Some(domain.trim_start_matches('.').to_ascii_lowercase());
        self
    }

    /// Parse a `Set-Cookie` header value. Returns `None` for headers with
    /// no `name=value` first segment.
    pub fn parse(header: &str) -> Option<Self> {
        let mut parts = header.split(';');
        let first = parts.next()?.trim();
        let (name, value) = first.split_once('=')?;
        let mut sc = SetCookie::session(name.trim(), value.trim());
        for attr in parts {
            let attr = attr.trim();
            let (key, val) = match attr.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (attr, ""),
            };
            let is = |name: &str| key.eq_ignore_ascii_case(name);
            if is("domain") {
                sc.domain = Some(val.trim_start_matches('.').to_ascii_lowercase());
            } else if is("path") {
                if !val.is_empty() {
                    sc.path = val.to_string();
                }
            } else if is("secure") {
                sc.secure = true;
            } else if is("httponly") {
                sc.http_only = true;
            } else if is("max-age") {
                sc.max_age = val.parse::<i64>().ok();
            }
        }
        Some(sc)
    }

    /// Format as a `Set-Cookie` header value, into one string.
    pub fn to_header_value(&self) -> String {
        use std::fmt::Write;
        // The fixed text around the parts is at most 65 bytes: `=`,
        // `; Domain=`, `; Path=`, `; Max-Age=` with 20 characters of
        // number, `; Secure` and `; HttpOnly`.
        let len = self.cookie.name.len()
            + self.cookie.value.len()
            + self.path.len()
            + self.domain.as_ref().map_or(0, String::len)
            + 65;
        let mut s = String::with_capacity(len);
        s.push_str(&self.cookie.name);
        s.push('=');
        s.push_str(&self.cookie.value);
        if let Some(d) = &self.domain {
            s.push_str("; Domain=");
            s.push_str(d);
        }
        if self.path != "/" {
            s.push_str("; Path=");
            s.push_str(&self.path);
        }
        if let Some(ma) = self.max_age {
            let _ = write!(s, "; Max-Age={ma}");
        }
        if self.secure {
            s.push_str("; Secure");
        }
        if self.http_only {
            s.push_str("; HttpOnly");
        }
        s
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct StoredCookie {
    set: SetCookie,
    /// The request host that stored the cookie (for host-only matching).
    origin_host: String,
}

/// A client-side cookie jar with domain/path matching.
///
/// The study's methodology browses in *private mode*: construct a fresh
/// jar per session and drop it at the end, which is exactly how the
/// browser model uses this type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CookieJar {
    cookies: Vec<StoredCookie>,
}

impl CookieJar {
    /// Create an empty jar (a fresh private-mode session).
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a cookie set by `origin_host`. Replaces any cookie with the
    /// same (name, effective domain, path). A non-positive `Max-Age`
    /// removes the cookie.
    pub fn store(&mut self, origin_host: &str, set: SetCookie) {
        let origin_host = origin_host.to_ascii_lowercase();
        // Reject cookies whose Domain attribute is not a suffix of the
        // origin host (a cross-domain set attempt), as browsers do.
        if let Some(d) = &set.domain {
            if !domain_matches(&origin_host, d) {
                return;
            }
        }
        fn key(c: &StoredCookie) -> (&str, &str, &str) {
            (
                &c.set.cookie.name,
                c.set.domain.as_deref().unwrap_or(&c.origin_host),
                &c.set.path,
            )
        }
        let new = StoredCookie { set, origin_host };
        let new_key = key(&new);
        self.cookies.retain(|c| key(c) != new_key);
        if new.set.max_age.is_none_or(|ma| ma > 0) {
            self.cookies.push(new);
        }
    }

    /// The stored cookies to attach to a request for `host` + `path`
    /// over the given scheme security (`secure_channel` = HTTPS), in
    /// storage order.
    fn sent_to<'a>(
        &'a self,
        host: &'a str,
        path: &'a str,
        secure_channel: bool,
    ) -> impl Iterator<Item = &'a Cookie> + 'a {
        // Hosts are almost always lowercase already; only allocate when
        // the fold actually changes something.
        let host: std::borrow::Cow<'_, str> = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            host.to_ascii_lowercase().into()
        } else {
            host.into()
        };
        self.cookies
            .iter()
            .filter(move |c| {
                let domain_ok = match &c.set.domain {
                    Some(d) => domain_matches(&host, d),
                    None => host.as_ref() == c.origin_host,
                };
                let path_ok = path_matches(path, &c.set.path);
                let secure_ok = !c.set.secure || secure_channel;
                domain_ok && path_ok && secure_ok
            })
            .map(|c| &c.set.cookie)
    }

    /// Cookies to attach to a request for `host` + `path` over the given
    /// scheme security (`secure_channel` = HTTPS).
    pub fn matching(&self, host: &str, path: &str, secure_channel: bool) -> Vec<Cookie> {
        self.sent_to(host, path, secure_channel).cloned().collect()
    }

    /// Render a `Cookie` header value for a request, or `None` when no
    /// cookies match. One pass over the jar writes every matching
    /// `name=value` straight into the header; nothing is cloned.
    pub fn cookie_header(&self, host: &str, path: &str, secure_channel: bool) -> Option<String> {
        let mut header: Option<String> = None;
        for c in self.sent_to(host, path, secure_channel) {
            let out = match &mut header {
                Some(out) => {
                    out.push_str("; ");
                    out
                }
                None => header.insert(String::new()),
            };
            out.push_str(&c.name);
            out.push('=');
            out.push_str(&c.value);
        }
        header
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// Whether the jar is empty.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }
}

/// The clone-then-join `Cookie` header the one-pass
/// [`CookieJar::cookie_header`] replaced, retained as a differential
/// oracle (`tests/fastpath_differential.rs`).
pub mod reference {
    use super::{domain_matches, path_matches, Cookie, CookieJar};

    /// Reference twin of [`CookieJar::cookie_header`]: clone every
    /// matching cookie, format each, then join.
    pub fn cookie_header_reference(
        jar: &CookieJar,
        host: &str,
        path: &str,
        secure_channel: bool,
    ) -> Option<String> {
        let host = host.to_ascii_lowercase();
        let cookies: Vec<Cookie> = jar
            .cookies
            .iter()
            .filter(|c| {
                let domain_ok = match &c.set.domain {
                    Some(d) => domain_matches(&host, d),
                    None => host == c.origin_host,
                };
                let path_ok = path_matches(path, &c.set.path);
                let secure_ok = !c.set.secure || secure_channel;
                domain_ok && path_ok && secure_ok
            })
            .map(|c| c.set.cookie.clone())
            .collect();
        if cookies.is_empty() {
            return None;
        }
        Some(
            cookies
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    }
}

/// RFC 6265 domain-match: `host` equals `domain` or is a dot-separated
/// subdomain of it.
fn domain_matches(host: &str, domain: &str) -> bool {
    host == domain
        || (host.len() > domain.len()
            && host.ends_with(domain)
            && host.as_bytes()[host.len() - domain.len() - 1] == b'.')
}

/// RFC 6265 path-match (prefix with `/` boundary).
fn path_matches(request_path: &str, cookie_path: &str) -> bool {
    request_path == cookie_path
        || (request_path.starts_with(cookie_path)
            && (cookie_path.ends_with('/')
                || request_path.as_bytes().get(cookie_path.len()) == Some(&b'/')))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_set_cookie_attributes() {
        let sc = SetCookie::parse(
            "_ga=GA1.2.99; Domain=.example.com; Path=/; Secure; HttpOnly; Max-Age=3600",
        )
        .unwrap();
        assert_eq!(sc.cookie.name, "_ga");
        assert_eq!(sc.domain.as_deref(), Some("example.com"));
        assert!(sc.secure && sc.http_only);
        assert_eq!(sc.max_age, Some(3600));
    }

    #[test]
    fn parse_rejects_attribute_only() {
        assert!(SetCookie::parse("Secure; HttpOnly").is_none());
    }

    #[test]
    fn jar_host_only_vs_domain_cookie() {
        let mut jar = CookieJar::new();
        jar.store("www.example.com", SetCookie::session("hostonly", "1"));
        jar.store(
            "www.example.com",
            SetCookie::session("domainwide", "2").with_domain("example.com"),
        );
        // Host-only cookie is not sent to a sibling subdomain.
        let sib = jar.matching("api.example.com", "/", true);
        assert_eq!(sib.len(), 1);
        assert_eq!(sib[0].name, "domainwide");
        // Both are sent back to the origin host.
        assert_eq!(jar.matching("www.example.com", "/", true).len(), 2);
    }

    #[test]
    fn jar_rejects_cross_domain_set() {
        let mut jar = CookieJar::new();
        jar.store(
            "evil.com",
            SetCookie::session("x", "1").with_domain("bank.com"),
        );
        assert!(jar.is_empty());
    }

    #[test]
    fn jar_secure_cookie_needs_https() {
        let mut jar = CookieJar::new();
        let mut sc = SetCookie::session("sid", "s3cret");
        sc.secure = true;
        jar.store("example.com", sc);
        assert!(jar.matching("example.com", "/", false).is_empty());
        assert_eq!(jar.matching("example.com", "/", true).len(), 1);
    }

    #[test]
    fn jar_path_scoping() {
        let mut jar = CookieJar::new();
        let mut sc = SetCookie::session("p", "1");
        sc.path = "/account".into();
        jar.store("example.com", sc);
        assert!(jar.matching("example.com", "/", true).is_empty());
        assert_eq!(jar.matching("example.com", "/account", true).len(), 1);
        assert_eq!(
            jar.matching("example.com", "/account/settings", true).len(),
            1
        );
        assert!(jar.matching("example.com", "/accounting", true).is_empty());
    }

    #[test]
    fn jar_replaces_and_deletes() {
        let mut jar = CookieJar::new();
        jar.store("a.com", SetCookie::session("k", "v1"));
        jar.store("a.com", SetCookie::session("k", "v2"));
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.matching("a.com", "/", true)[0].value, "v2");
        let mut del = SetCookie::session("k", "");
        del.max_age = Some(0);
        jar.store("a.com", del);
        assert!(jar.is_empty());
    }

    #[test]
    fn cookie_header_rendering() {
        let mut jar = CookieJar::new();
        jar.store("a.com", SetCookie::session("a", "1"));
        jar.store("a.com", SetCookie::session("b", "2"));
        let hdr = jar.cookie_header("a.com", "/", true).unwrap();
        assert_eq!(hdr, "a=1; b=2");
        assert_eq!(
            Some(hdr),
            reference::cookie_header_reference(&jar, "A.com", "/", true)
        );
        assert!(jar.cookie_header("other.com", "/", true).is_none());
    }

    #[test]
    fn header_value_is_formatted_in_one_allocation() {
        let mut sc = SetCookie::session("id", "42").with_domain("x.com");
        sc.path = "/account/settings".into();
        sc.max_age = Some(i64::MIN);
        sc.secure = true;
        sc.http_only = true;
        let value = sc.to_header_value();
        let fixed = value.len() - ["id", "42", "x.com", "/account/settings"].concat().len();
        assert_eq!(fixed, 65, "{value}");
        assert_eq!(
            value.capacity(),
            value.len(),
            "the longest value never grows"
        );
    }

    #[test]
    fn roundtrip_header_value() {
        let sc = SetCookie::parse("id=42; Domain=x.com; Max-Age=5; Secure").unwrap();
        let reparsed = SetCookie::parse(&sc.to_header_value()).unwrap();
        assert_eq!(sc, reparsed);
    }
}

appvsweb_json::impl_json!(struct Cookie { name, value });
appvsweb_json::impl_json!(struct SetCookie { cookie, domain, path, secure, http_only, max_age });
appvsweb_json::impl_json!(struct StoredCookie { set, origin_host });
appvsweb_json::impl_json!(struct CookieJar { cookies });
