//! HTTP request/response message types.

use crate::cookie::SetCookie;
use crate::headers::{HeaderMap, HeaderText};
use crate::url::Url;
use std::borrow::Cow;
use std::fmt;

/// HTTP request method. Only the methods observed in the study's traffic
/// are modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET — page loads, beacons, pixel fires.
    Get,
    /// POST — logins, form submissions, SDK batch uploads.
    Post,
    /// PUT — occasional REST API writes.
    Put,
    /// HEAD — cache validation.
    Head,
    /// DELETE — rare REST API deletes.
    Delete,
}

impl Method {
    /// Method token as it appears on the request line.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Head => "HEAD",
            Method::Delete => "DELETE",
        }
    }

    /// Parse a method token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "HEAD" => Method::Head,
            "DELETE" => Method::Delete,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP protocol version (the study's 2016 traffic is HTTP/1.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Version {
    /// HTTP/1.0 — still seen from some legacy trackers.
    Http10,
    /// HTTP/1.1 — the default.
    #[default]
    Http11,
}

impl Version {
    /// Version token as it appears on the request line.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

/// HTTP status code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 204 No Content (typical for tracking beacons).
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 302 Found — the workhorse of RTB redirect chains.
    pub const FOUND: StatusCode = StatusCode(302);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 401 Unauthorized.
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);

    /// Whether this is a 3xx redirect.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// Canonical reason phrase for the codes the simulation emits.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }
}

/// A message body plus its declared content type.
///
/// The content is held one of two ways, and no observer can tell them
/// apart: equality, [`Body::len`], wire lengths, serialization, JSON and
/// HAR all see the same bytes.
///
/// * **Owned bytes** — what builders, parsers and request payloads carry.
/// * **A run** of one repeated byte (`byte`, `len`) — the filler origins
///   serve as page, asset and creative content. Its length is a number,
///   so a multi-kilobyte response costs nothing to build, move or count;
///   the bytes exist only where something materializes them through
///   [`Body::bytes`].
#[derive(Clone, Debug, Default)]
pub struct Body {
    content: Content,
    /// `Content-Type` value, if declared.
    pub content_type: Option<HeaderText>,
}

#[derive(Clone, Debug)]
enum Content {
    Bytes(Vec<u8>),
    Run { byte: u8, len: usize },
}

impl Default for Content {
    fn default() -> Self {
        Content::Bytes(Vec::new())
    }
}

impl PartialEq for Content {
    /// Content equality: a run equals the owned bytes it stands for.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Content::Bytes(a), Content::Bytes(b)) => a == b,
            (Content::Run { byte: a, len: n }, Content::Run { byte: b, len: m }) => {
                n == m && (*n == 0 || a == b)
            }
            (Content::Run { byte, len }, Content::Bytes(bytes))
            | (Content::Bytes(bytes), Content::Run { byte, len }) => {
                bytes.len() == *len && bytes.iter().all(|b| b == byte)
            }
        }
    }
}

impl Eq for Content {}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.content_type == other.content_type && self.content == other.content
    }
}

impl Eq for Body {}

impl Body {
    /// Empty body.
    pub fn empty() -> Self {
        Body::default()
    }

    /// A body of owned bytes with an optional declared content type (the
    /// wire parsers' constructor).
    pub fn new(bytes: Vec<u8>, content_type: Option<String>) -> Self {
        Body {
            content: Content::Bytes(bytes),
            content_type: content_type.map(HeaderText::Owned),
        }
    }

    fn typed(content: Content, content_type: impl Into<HeaderText>) -> Self {
        Body {
            content,
            content_type: Some(content_type.into()),
        }
    }

    /// A `application/x-www-form-urlencoded` body from pairs.
    pub fn form(pairs: &[(&str, &str)]) -> Self {
        Body::typed(
            Content::Bytes(crate::codec::form_urlencode(pairs).into_bytes()),
            "application/x-www-form-urlencoded",
        )
    }

    /// A JSON body from a pre-rendered string.
    pub fn json(text: impl Into<String>) -> Self {
        Body::typed(Content::Bytes(text.into().into_bytes()), "application/json")
    }

    /// A plain-text body.
    pub fn text(text: impl Into<String>) -> Self {
        Body::typed(Content::Bytes(text.into().into_bytes()), "text/plain")
    }

    /// An opaque binary body (images, protobuf-ish SDK payloads).
    pub fn binary(bytes: Vec<u8>, content_type: impl Into<HeaderText>) -> Self {
        Body::typed(Content::Bytes(bytes), content_type)
    }

    /// `len` copies of `byte`, held as a run: equal to
    /// `Body::binary(vec![byte; len], content_type)` in every observable
    /// way, without allocating the bytes.
    pub fn repeat(byte: u8, len: usize, content_type: impl Into<HeaderText>) -> Self {
        Body::typed(Content::Run { byte, len }, content_type)
    }

    /// Body length in bytes (arithmetic for a run).
    pub fn len(&self) -> usize {
        match &self.content {
            Content::Bytes(bytes) => bytes.len(),
            Content::Run { len, .. } => *len,
        }
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body's bytes: borrowed when owned, materialized when a run.
    /// The one way to read content; serializers, fault injection, JSON
    /// and HAR export go through it, the capture path never does.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match &self.content {
            Content::Bytes(bytes) => Cow::Borrowed(bytes),
            Content::Run { byte, len } => Cow::Owned(vec![*byte; *len]),
        }
    }

    /// The `(byte, len)` of a run, or `None` for owned bytes.
    pub fn run(&self) -> Option<(u8, usize)> {
        match self.content {
            Content::Run { byte, len } => Some((byte, len)),
            Content::Bytes(_) => None,
        }
    }

    /// Keep the first `len` bytes (no-op when already shorter). A run
    /// stays a run.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.content {
            Content::Bytes(bytes) => bytes.truncate(len),
            Content::Run { len: n, .. } => *n = (*n).min(len),
        }
    }

    /// Body as UTF-8 text (lossy).
    pub fn as_text(&self) -> String {
        String::from_utf8_lossy(&self.bytes()).into_owned()
    }
}

// Hand-rolled (not `impl_json!`): the content encodes as its bytes, so a
// run and its owned twin produce the same text, which is the shape
// `impl_json!(struct Body { bytes, content_type })` emitted. Decoding
// always yields owned bytes.
// lint:allow(R2) impl_json! cannot encode the private run representation
impl appvsweb_json::ToJson for Body {
    fn to_json(&self) -> appvsweb_json::Json {
        appvsweb_json::Json::Obj(vec![
            ("bytes".to_string(), self.bytes().to_json()),
            ("content_type".to_string(), self.content_type.to_json()),
        ])
    }
}

// lint:allow(R2) impl_json! cannot encode the private run representation
impl appvsweb_json::FromJson for Body {
    fn from_json(v: &appvsweb_json::Json) -> Result<Self, appvsweb_json::JsonError> {
        Ok(Body::new(v.field("bytes")?, v.field("content_type")?))
    }
}

/// Eager twins of the descriptor constructors, retained as differential
/// oracles (`tests/fastpath_differential.rs`).
pub mod reference {
    use super::Body;
    use crate::headers::HeaderText;

    /// Reference twin of [`Body::repeat`]: the filler as owned bytes,
    /// the way origins built it before runs existed.
    pub fn repeat_eager(byte: u8, len: usize, content_type: impl Into<HeaderText>) -> Body {
        Body::binary(vec![byte; len], content_type)
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute target URL.
    pub url: Url,
    /// Protocol version.
    pub version: Version,
    /// Request headers.
    pub headers: HeaderMap,
    /// Request body.
    pub body: Body,
}

impl Request {
    /// A GET request for `url` with standard headers.
    pub fn get(url: Url) -> Self {
        Request::new(Method::Get, url)
    }

    /// A POST request with the given body.
    pub fn post(url: Url, body: Body) -> Self {
        let mut r = Request::new(Method::Post, url);
        r.set_body(body);
        r
    }

    /// A request with an empty body.
    pub fn new(method: Method, url: Url) -> Self {
        let mut headers = HeaderMap::new();
        headers.set("Host", url.host.as_str().to_owned());
        Request {
            method,
            url,
            version: Version::Http11,
            headers,
            body: Body::empty(),
        }
    }

    /// Attach a body, updating `Content-Type` and `Content-Length`.
    pub fn set_body(&mut self, body: Body) {
        if let Some(ct) = &body.content_type {
            self.headers.set("Content-Type", ct.clone());
        }
        self.headers.set("Content-Length", body.len().to_string());
        self.body = body;
    }

    /// Set the `User-Agent` header (builder style).
    pub fn with_user_agent(mut self, ua: impl Into<HeaderText>) -> Self {
        self.headers.set("User-Agent", ua);
        self
    }

    /// Set the `Referer` header (builder style).
    pub fn with_referer(mut self, referer: impl Into<HeaderText>) -> Self {
        self.headers.set("Referer", referer);
        self
    }

    /// Exact size of this request on the wire, in bytes (computed
    /// arithmetically; equals `serialize_request(self).len()`).
    pub fn wire_len(&self) -> usize {
        crate::wire::request_wire_len(self)
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Protocol version.
    pub version: Version,
    /// Response headers.
    pub headers: HeaderMap,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A response with the given status and empty body.
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            version: Version::Http11,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// 200 OK with a body.
    pub fn ok(body: Body) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.set_body(body);
        r
    }

    /// 204 No Content (tracking-beacon style).
    pub fn no_content() -> Self {
        Response::new(StatusCode::NO_CONTENT)
    }

    /// A 302 redirect to `location`.
    pub fn redirect(location: &Url) -> Self {
        let mut r = Response::new(StatusCode::FOUND);
        r.headers.set("Location", location.to_string());
        r
    }

    /// Attach a body, updating `Content-Type` and `Content-Length`.
    pub fn set_body(&mut self, body: Body) {
        if let Some(ct) = &body.content_type {
            self.headers.set("Content-Type", ct.clone());
        }
        self.headers.set("Content-Length", body.len().to_string());
        self.body = body;
    }

    /// Add a `Set-Cookie` header.
    pub fn add_set_cookie(&mut self, sc: &SetCookie) {
        self.headers.append("Set-Cookie", sc.to_header_value());
    }

    /// Parse the `Set-Cookie` headers, in order, skipping malformed ones.
    pub fn set_cookies(&self) -> impl Iterator<Item = SetCookie> + '_ {
        self.headers
            .get_all("Set-Cookie")
            .filter_map(SetCookie::parse)
    }

    /// The redirect target, if this is a 3xx with a valid `Location`.
    pub fn redirect_target(&self) -> Option<Url> {
        if !self.status.is_redirect() {
            return None;
        }
        self.headers
            .get("Location")
            .and_then(|l| Url::parse(l).ok())
    }

    /// Exact size of this response on the wire, in bytes (computed
    /// arithmetically; equals `serialize_response(self).len()`).
    pub fn wire_len(&self) -> usize {
        crate::wire::response_wire_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn request_builders_set_headers() {
        let r = Request::post(
            url("https://api.grubhub.com/login"),
            Body::form(&[("email", "user@example.com"), ("password", "hunter2")]),
        );
        assert_eq!(r.headers.get("Host"), Some("api.grubhub.com"));
        assert_eq!(
            r.headers.get("Content-Type"),
            Some("application/x-www-form-urlencoded")
        );
        let len: usize = r.headers.get("Content-Length").unwrap().parse().unwrap();
        assert_eq!(len, r.body.len());
    }

    #[test]
    fn response_redirect_roundtrip() {
        let target = url("https://ads.example.net/rtb?bid=7");
        let r = Response::redirect(&target);
        assert_eq!(r.redirect_target().unwrap(), target);
        assert!(Response::ok(Body::text("hi")).redirect_target().is_none());
    }

    #[test]
    fn response_set_cookie_roundtrip() {
        let mut r = Response::no_content();
        r.add_set_cookie(&SetCookie::session("u", "42").with_domain("example.com"));
        r.add_set_cookie(&SetCookie::session("s", "x"));
        let parsed: Vec<_> = r.set_cookies().collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].domain.as_deref(), Some("example.com"));
    }

    #[test]
    fn status_code_classes() {
        assert!(StatusCode::FOUND.is_redirect());
        assert!(!StatusCode::NOT_FOUND.is_redirect());
        assert_eq!(StatusCode(302).reason(), "Found");
    }

    #[test]
    fn run_body_reads_as_its_bytes() {
        let mut run = Body::repeat(b'.', 5, "text/html");
        let eager = Body::binary(b".....".to_vec(), "text/html");
        assert_eq!(run, eager);
        assert_eq!((run.len(), &*run.bytes()), (5, &b"....."[..]));
        assert_ne!(run, Body::binary(b"....,".to_vec(), "text/html"));
        assert_ne!(run, Body::repeat(b'.', 5, "image/gif"));
        assert_eq!(Body::repeat(b'a', 0, "x/y"), Body::repeat(b'b', 0, "x/y"));
        run.truncate(2);
        assert_eq!(
            (run.run(), run.as_text()),
            (Some((b'.', 2)), "..".to_string())
        );
        assert_eq!(eager.run(), None);
    }
}

appvsweb_json::impl_json!(
    enum Method {
        Get,
        Post,
        Put,
        Head,
        Delete,
    }
);
appvsweb_json::impl_json!(
    enum Version {
        Http10,
        Http11,
    }
);
appvsweb_json::impl_json!(newtype StatusCode(u16));
appvsweb_json::impl_json!(struct Request { method, url, version, headers, body });
appvsweb_json::impl_json!(struct Response { status, version, headers, body });
