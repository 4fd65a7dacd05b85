//! HTTP/1.1 wire (de)serialization.
//!
//! The MITM proxy stores flows as the raw bytes it forwarded; the PII
//! detectors then re-parse those bytes. Serializing and parsing real wire
//! format (rather than passing structs around) keeps detection honest: a
//! leak is only found if it survives the trip through actual HTTP syntax,
//! exactly as in the mitmproxy-based original pipeline.

use crate::headers::HeaderMap;
use crate::message::{Body, Method, Request, Response, StatusCode, Version};
use crate::url::{Scheme, Url};

/// Error from the wire parsers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The start line was malformed.
    BadStartLine,
    /// A header line was malformed.
    BadHeader,
    /// Body was shorter than `Content-Length`, or chunked framing broke.
    Truncated,
    /// A chunk size line failed to parse.
    BadChunk,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadStartLine => f.write_str("malformed start line"),
            WireError::BadHeader => f.write_str("malformed header"),
            WireError::Truncated => f.write_str("truncated body"),
            WireError::BadChunk => f.write_str("bad chunk framing"),
        }
    }
}

impl std::error::Error for WireError {}

/// Chunk size used when a response declares `Transfer-Encoding: chunked`.
pub const CHUNK_SIZE: usize = 1024;

/// Serialize a request to HTTP/1.1 wire bytes (origin-form target).
pub fn serialize_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(request_wire_len(req));
    serialize_request_into(req, &mut buf);
    buf
}

/// Append a request's wire bytes to `buf` (pooled-buffer entry point;
/// the caller owns clearing). Appends exactly [`request_wire_len`] bytes.
pub fn serialize_request_into(req: &Request, buf: &mut Vec<u8>) {
    buf.extend_from_slice(req.method.as_str().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(req.url.path.as_bytes());
    if let Some(q) = &req.url.query {
        buf.push(b'?');
        buf.extend_from_slice(q.as_bytes());
    }
    buf.push(b' ');
    buf.extend_from_slice(req.version.as_str().as_bytes());
    buf.extend_from_slice(b"\r\n");
    put_headers(buf, &req.headers);
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(&req.body.bytes());
}

/// Serialize a response to HTTP/1.1 wire bytes.
pub fn serialize_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(response_wire_len(resp));
    serialize_response_into(resp, &mut buf);
    buf
}

/// Append a response's wire bytes to `buf`. Appends exactly
/// [`response_wire_len`] bytes; chunked framing is written in place
/// (no intermediate chunk buffer).
pub fn serialize_response_into(resp: &Response, buf: &mut Vec<u8>) {
    buf.extend_from_slice(resp.version.as_str().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(resp.status.0.to_string().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(resp.status.reason().as_bytes());
    buf.extend_from_slice(b"\r\n");
    put_headers(buf, &resp.headers);
    buf.extend_from_slice(b"\r\n");
    if is_chunked(&resp.headers) {
        chunk_body_into(&resp.body.bytes(), CHUNK_SIZE, buf);
    } else {
        buf.extend_from_slice(&resp.body.bytes());
    }
}

/// Exact length of [`serialize_request`]'s output, computed without
/// serializing. The MITM proxy logs per-exchange `bytes=` figures that
/// are pinned by trace goldens; this must equal the serialized length
/// to the byte (the differential suite proves it).
pub fn request_wire_len(req: &Request) -> usize {
    req.method.as_str().len()
        + 1
        + req.url.path.len()
        + req.url.query.as_ref().map_or(0, |q| 1 + q.len())
        + 1
        + req.version.as_str().len()
        + 2
        + headers_wire_len(&req.headers)
        + 2
        + req.body.len()
}

/// Exact length of [`serialize_response`]'s output, computed without
/// serializing (chunked framing included).
pub fn response_wire_len(resp: &Response) -> usize {
    let body = if is_chunked(&resp.headers) {
        chunked_wire_len(resp.body.len(), CHUNK_SIZE)
    } else {
        resp.body.len()
    };
    resp.version.as_str().len()
        + 1
        + decimal_digits(resp.status.0 as usize)
        + 1
        + resp.status.reason().len()
        + 2
        + headers_wire_len(&resp.headers)
        + 2
        + body
}

fn is_chunked(headers: &HeaderMap) -> bool {
    headers
        .get("Transfer-Encoding")
        .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
}

fn headers_wire_len(headers: &HeaderMap) -> usize {
    headers.iter().map(|(n, v)| n.len() + 2 + v.len() + 2).sum()
}

/// Exact length of [`chunk_body`]'s framing for a body of `body_len`
/// bytes: per chunk `hex_digits(len) + 2 + len + 2`, plus the 5-byte
/// `0\r\n\r\n` terminator.
pub fn chunked_wire_len(body_len: usize, chunk_size: usize) -> usize {
    let chunk_size = chunk_size.max(1);
    let full = body_len / chunk_size;
    let rem = body_len % chunk_size;
    let mut n = full * (hex_digits(chunk_size) + 4 + chunk_size);
    if rem > 0 {
        n += hex_digits(rem) + 4 + rem;
    }
    n + 5
}

fn hex_digits(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        ((usize::BITS - n.leading_zeros()).div_ceil(4)) as usize
    }
}

fn decimal_digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

fn put_headers(buf: &mut Vec<u8>, headers: &HeaderMap) {
    for (n, v) in headers.iter() {
        buf.extend_from_slice(n.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(v.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }
}

/// Frame `body` as chunked transfer encoding with the given chunk size.
pub fn chunk_body(body: &[u8], chunk_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunked_wire_len(body.len(), chunk_size));
    chunk_body_into(body, chunk_size, &mut out);
    out
}

/// Append chunked framing for `body` to `out`, with no intermediate
/// allocation per chunk.
pub fn chunk_body_into(body: &[u8], chunk_size: usize, out: &mut Vec<u8>) {
    let chunk_size = chunk_size.max(1);
    for chunk in body.chunks(chunk_size) {
        push_hex(chunk.len(), out);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Append `n` as lowercase hex (a chunk-size line), bypassing `fmt` —
/// this runs once per chunk on the origin's serialization path.
fn push_hex(mut n: usize, out: &mut Vec<u8>) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 2 * std::mem::size_of::<usize>()];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = DIGITS[n & 0xf];
        n >>= 4;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Decode a chunked-encoded body back to its plain bytes.
pub fn dechunk_body(mut data: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(data.len());
    loop {
        let line_end = find_crlf(data).ok_or(WireError::BadChunk)?;
        let size_line = std::str::from_utf8(&data[..line_end]).map_err(|_| WireError::BadChunk)?;
        let size_str = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| WireError::BadChunk)?;
        data = &data[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if data.len() < size + 2 {
            return Err(WireError::Truncated);
        }
        out.extend_from_slice(&data[..size]);
        if &data[size..size + 2] != b"\r\n" {
            return Err(WireError::BadChunk);
        }
        data = &data[size + 2..];
    }
}

fn find_crlf(data: &[u8]) -> Option<usize> {
    data.windows(2).position(|w| w == b"\r\n")
}

/// Borrowed view of a raw HTTP/1.1 message: start line, header
/// name/value slices, and body bytes, all pointing into the input.
/// Nothing is copied until the caller materializes owned structures
/// (the MITM recording boundary) via [`MessageView::to_header_map`].
#[derive(Debug)]
pub struct MessageView<'a> {
    /// The request or status line, without its CRLF.
    pub start: &'a str,
    /// Header `(name, value)` slices in wire order, values trimmed.
    pub headers: Vec<(&'a str, &'a str)>,
    /// Raw body bytes (still chunked/encoded as on the wire).
    pub body: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// First header value matching `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, v)| v)
    }

    /// Materialize the borrowed headers into an owned [`HeaderMap`].
    pub fn to_header_map(&self) -> HeaderMap {
        let mut map = HeaderMap::new();
        for &(n, v) in &self.headers {
            map.append(n.to_owned(), v.to_owned());
        }
        map
    }
}

/// Split raw bytes into a zero-copy [`MessageView`].
pub fn split_message_view(data: &[u8]) -> Result<MessageView<'_>, WireError> {
    let header_end = data
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(WireError::Truncated)?;
    let head = std::str::from_utf8(&data[..header_end]).map_err(|_| WireError::BadHeader)?;
    let body = &data[header_end + 4..];

    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(WireError::BadStartLine)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(WireError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(WireError::BadHeader);
        }
        headers.push((name, value.trim()));
    }
    Ok(MessageView {
        start,
        headers,
        body,
    })
}

/// Parse request wire bytes. `secure` tells the parser which scheme the
/// bytes travelled over (the request line carries only the origin-form
/// target; the scheme is a property of the connection).
pub fn parse_request(data: &[u8], secure: bool) -> Result<Request, WireError> {
    let view = split_message_view(data)?;
    let mut parts = view.start.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(WireError::BadStartLine)?;
    let target = parts.next().ok_or(WireError::BadStartLine)?;
    let version = parse_version(parts.next().ok_or(WireError::BadStartLine)?)?;

    let host = view.header("Host").ok_or(WireError::BadStartLine)?;
    let scheme = if secure { Scheme::Https } else { Scheme::Http };
    let url = Url::parse(&format!("{}://{}{}", scheme.as_str(), host, target))
        .map_err(|_| WireError::BadStartLine)?;

    let body = read_body_view(&view)?;
    Ok(Request {
        method,
        url,
        version,
        headers: view.to_header_map(),
        body,
    })
}

/// Parse response wire bytes.
pub fn parse_response(data: &[u8]) -> Result<Response, WireError> {
    let view = split_message_view(data)?;
    let mut parts = view.start.splitn(3, ' ');
    let version = parse_version(parts.next().ok_or(WireError::BadStartLine)?)?;
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or(WireError::BadStartLine)?;
    let body = read_body_view(&view)?;
    Ok(Response {
        status: StatusCode(code),
        version,
        headers: view.to_header_map(),
        body,
    })
}

fn parse_version(s: &str) -> Result<Version, WireError> {
    match s {
        "HTTP/1.0" => Ok(Version::Http10),
        "HTTP/1.1" => Ok(Version::Http11),
        _ => Err(WireError::BadStartLine),
    }
}

/// Decode the body of a zero-copy view (dechunking or slicing to
/// `Content-Length`); this is the first point bytes are copied.
fn read_body_view(view: &MessageView<'_>) -> Result<Body, WireError> {
    let content_type = view.header("Content-Type").map(|s| s.to_string());
    let bytes = if view
        .header("Transfer-Encoding")
        .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
    {
        dechunk_body(view.body)?
    } else if let Some(cl) = view.header("Content-Length") {
        let len: usize = cl.parse().map_err(|_| WireError::BadHeader)?;
        if view.body.len() < len {
            return Err(WireError::Truncated);
        }
        view.body[..len].to_vec()
    } else {
        view.body.to_vec()
    };
    Ok(Body::new(bytes, content_type))
}

/// Eager-copy reference parsers, retained as differential oracles for
/// the zero-copy paths (`tests/fastpath_differential.rs`). These are
/// the pre-optimization implementations, kept verbatim.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::*;

    /// Reference twin of [`parse_request`] built on the eager splitter.
    pub fn parse_request_reference(data: &[u8], secure: bool) -> Result<Request, WireError> {
        let (start, headers, body_bytes) = split_message(data)?;
        let mut parts = start.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or(WireError::BadStartLine)?;
        let target = parts.next().ok_or(WireError::BadStartLine)?;
        let version = parse_version(parts.next().ok_or(WireError::BadStartLine)?)?;

        let host = headers.get("Host").ok_or(WireError::BadStartLine)?;
        let scheme = if secure { Scheme::Https } else { Scheme::Http };
        let url = Url::parse(&format!("{}://{}{}", scheme.as_str(), host, target))
            .map_err(|_| WireError::BadStartLine)?;

        let body = read_body(&headers, body_bytes)?;
        Ok(Request {
            method,
            url,
            version,
            headers,
            body,
        })
    }

    /// Reference twin of [`parse_response`].
    pub fn parse_response_reference(data: &[u8]) -> Result<Response, WireError> {
        let (start, headers, body_bytes) = split_message(data)?;
        let mut parts = start.splitn(3, ' ');
        let version = parse_version(parts.next().ok_or(WireError::BadStartLine)?)?;
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or(WireError::BadStartLine)?;
        let body = read_body(&headers, body_bytes)?;
        Ok(Response {
            status: StatusCode(code),
            version,
            headers,
            body,
        })
    }

    /// Eagerly split raw bytes into (start line, headers, body bytes),
    /// copying the head into owned strings.
    fn split_message(data: &[u8]) -> Result<(String, HeaderMap, &[u8]), WireError> {
        let header_end = data
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or(WireError::Truncated)?;
        let head = std::str::from_utf8(&data[..header_end]).map_err(|_| WireError::BadHeader)?;
        let body = &data[header_end + 4..];

        let mut lines = head.split("\r\n");
        let start = lines.next().ok_or(WireError::BadStartLine)?.to_string();
        let mut headers = HeaderMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(WireError::BadHeader)?;
            if name.is_empty() || name.contains(' ') {
                return Err(WireError::BadHeader);
            }
            headers.append(name.to_owned(), value.trim().to_owned());
        }
        Ok((start, headers, body))
    }

    fn read_body(headers: &HeaderMap, body_bytes: &[u8]) -> Result<Body, WireError> {
        let content_type = headers.get("Content-Type").map(|s| s.to_string());
        let bytes = if headers
            .get("Transfer-Encoding")
            .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
        {
            dechunk_body(body_bytes)?
        } else if let Some(cl) = headers.get("Content-Length") {
            let len: usize = cl.parse().map_err(|_| WireError::BadHeader)?;
            if body_bytes.len() < len {
                return Err(WireError::Truncated);
            }
            body_bytes[..len].to_vec()
        } else {
            body_bytes.to_vec()
        };
        Ok(Body::new(bytes, content_type))
    }

    /// Reference twin of [`serialize_response`]: builds the chunk
    /// framing through an intermediate buffer exactly as the
    /// pre-optimization serializer did.
    pub fn serialize_response_reference(resp: &Response) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + resp.body.len());
        buf.extend_from_slice(resp.version.as_str().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(resp.status.0.to_string().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(resp.status.reason().as_bytes());
        buf.extend_from_slice(b"\r\n");
        put_headers(&mut buf, &resp.headers);
        buf.extend_from_slice(b"\r\n");
        if resp
            .headers
            .get("Transfer-Encoding")
            .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
        {
            let mut chunked = Vec::new();
            for chunk in resp.body.bytes().chunks(CHUNK_SIZE) {
                chunked.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                chunked.extend_from_slice(chunk);
                chunked.extend_from_slice(b"\r\n");
            }
            chunked.extend_from_slice(b"0\r\n\r\n");
            buf.extend_from_slice(&chunked);
        } else {
            buf.extend_from_slice(&resp.body.bytes());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Body, Request, Response};
    use crate::url::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::post(
            url("https://api.example.com/v1/login?src=app"),
            Body::form(&[("user", "jane"), ("password", "s3cret!")]),
        )
        .with_user_agent("ExampleApp/3.2 (Android 4.4)");
        let bytes = serialize_request(&req);
        let parsed = parse_request(&bytes, true).unwrap();
        assert_eq!(parsed.method, req.method);
        assert_eq!(parsed.url, req.url);
        assert_eq!(parsed.body, req.body);
        assert_eq!(
            parsed.headers.get("User-Agent"),
            Some("ExampleApp/3.2 (Android 4.4)")
        );
    }

    #[test]
    fn response_roundtrip_plain() {
        let mut resp = Response::ok(Body::json(r#"{"ok":true}"#));
        resp.headers.set("Server", "nginx");
        let bytes = serialize_response(&resp);
        let parsed = parse_response(&bytes).unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.body, resp.body);
    }

    #[test]
    fn response_roundtrip_chunked() {
        let payload = vec![b'x'; 5000];
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::binary(payload.clone(), "application/octet-stream");
        resp.headers.set("Content-Type", "application/octet-stream");
        resp.headers.set("Transfer-Encoding", "chunked");
        let bytes = serialize_response(&resp);
        let parsed = parse_response(&bytes).unwrap();
        assert_eq!(*parsed.body.bytes(), payload[..]);
    }

    #[test]
    fn chunk_dechunk_roundtrip_edge_sizes() {
        for size in [1usize, 2, 3, 1024] {
            let body: Vec<u8> = (0..=255u8).cycle().take(2500).collect();
            let chunked = chunk_body(&body, size);
            assert_eq!(dechunk_body(&chunked).unwrap(), body);
        }
        assert_eq!(dechunk_body(&chunk_body(b"", 16)).unwrap(), b"");
    }

    #[test]
    fn dechunk_rejects_bad_framing() {
        assert_eq!(
            dechunk_body(b"zz\r\nxx\r\n0\r\n\r\n"),
            Err(WireError::BadChunk)
        );
        assert_eq!(dechunk_body(b"5\r\nab"), Err(WireError::Truncated));
        assert_eq!(dechunk_body(b"nothing here"), Err(WireError::BadChunk));
    }

    #[test]
    fn parse_request_requires_host() {
        let raw = b"GET /x HTTP/1.1\r\n\r\n";
        assert!(parse_request(raw, false).is_err());
    }

    #[test]
    fn parse_scheme_follows_connection_security() {
        let raw = b"GET /p HTTP/1.1\r\nHost: example.com\r\n\r\n";
        assert!(!parse_request(raw, true).unwrap().url.is_plaintext());
        assert!(parse_request(raw, false).unwrap().url.is_plaintext());
    }

    #[test]
    fn truncated_content_length_detected() {
        let raw = b"POST /p HTTP/1.1\r\nHost: a.com\r\nContent-Length: 10\r\n\r\nshort";
        assert_eq!(parse_request(raw, false), Err(WireError::Truncated));
    }

    #[test]
    fn bad_header_line_detected() {
        let raw = b"GET / HTTP/1.1\r\nHost: a.com\r\nBadHeaderNoColon\r\n\r\n";
        assert_eq!(parse_request(raw, false), Err(WireError::BadHeader));
    }

    #[test]
    fn request_wire_len_is_exact() {
        let cases = [
            Request::get(url("https://example.com/")),
            Request::get(url("http://a.b.c/path/deep?q=1&r=2")).with_user_agent("UA/1.0"),
            Request::post(
                url("https://api.example.com/v1/login"),
                Body::form(&[("user", "jane"), ("password", "s3cret!")]),
            ),
        ];
        for req in &cases {
            assert_eq!(
                request_wire_len(req),
                serialize_request(req).len(),
                "wire_len diverged for {}",
                req.url.request_target()
            );
        }
    }

    #[test]
    fn response_wire_len_is_exact_plain_and_chunked() {
        for body_len in [0usize, 1, 1023, 1024, 1025, 5000] {
            let mut resp = Response::new(StatusCode::OK);
            resp.body = Body::binary(vec![b'x'; body_len], "application/octet-stream");
            resp.headers.set("Content-Type", "application/octet-stream");
            assert_eq!(response_wire_len(&resp), serialize_response(&resp).len());
            resp.headers.set("Transfer-Encoding", "chunked");
            assert_eq!(
                response_wire_len(&resp),
                serialize_response(&resp).len(),
                "chunked wire_len diverged at body_len={body_len}"
            );
        }
    }

    #[test]
    fn chunked_wire_len_matches_chunk_body() {
        for (body_len, size) in [(0usize, 16usize), (1, 1), (15, 16), (16, 16), (2500, 1024)] {
            let body = vec![0u8; body_len];
            assert_eq!(
                chunked_wire_len(body_len, size),
                chunk_body(&body, size).len()
            );
        }
    }

    #[test]
    fn zero_copy_parse_matches_reference() {
        let good: &[&[u8]] = &[
            b"GET /p?x=1 HTTP/1.1\r\nHost: example.com\r\nCookie: sid=42\r\n\r\n",
            b"POST /l HTTP/1.1\r\nHost: a.com\r\nContent-Length: 5\r\n\r\nhello",
        ];
        let bad: &[&[u8]] = &[
            b"GET /x HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: a.com\r\nNoColon\r\n\r\n",
            b"truncated head",
        ];
        for raw in good.iter().chain(bad) {
            for secure in [false, true] {
                assert_eq!(
                    parse_request(raw, secure),
                    reference::parse_request_reference(raw, secure)
                );
            }
            assert_eq!(
                parse_response(raw),
                reference::parse_response_reference(raw)
            );
        }
        let resp = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        assert_eq!(
            parse_response(resp),
            reference::parse_response_reference(resp)
        );
    }

    #[test]
    fn serialize_response_matches_reference() {
        let mut resp = Response::ok(Body::json(r#"{"ok":true}"#));
        resp.headers.set("Server", "nginx");
        assert_eq!(
            serialize_response(&resp),
            reference::serialize_response_reference(&resp)
        );
        let mut chunked = Response::new(StatusCode::OK);
        chunked.body = Body::binary(vec![b'y'; 3000], "application/octet-stream");
        chunked.headers.set("Transfer-Encoding", "chunked");
        assert_eq!(
            serialize_response(&chunked),
            reference::serialize_response_reference(&chunked)
        );
    }

    #[test]
    fn serialize_into_appends_without_clearing() {
        let req = Request::get(url("https://example.com/a"));
        let mut buf = b"prefix".to_vec();
        serialize_request_into(&req, &mut buf);
        assert!(buf.starts_with(b"prefix"));
        assert_eq!(buf.len(), 6 + request_wire_len(&req));
    }

    #[test]
    fn message_view_borrows_and_materializes() {
        let raw = b"GET /v HTTP/1.1\r\nHost: h.com\r\nX-A: 1\r\nX-A: 2\r\n\r\nbody";
        let view = split_message_view(raw).unwrap();
        assert_eq!(view.start, "GET /v HTTP/1.1");
        assert_eq!(view.header("host"), Some("h.com"));
        assert_eq!(view.header("x-a"), Some("1"), "first value wins");
        assert_eq!(view.body, b"body");
        let map = view.to_header_map();
        assert_eq!(map.get_all("X-A").collect::<Vec<_>>(), vec!["1", "2"]);
    }
}
