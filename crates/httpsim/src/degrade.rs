//! Deterministic response corruption for fault injection.
//!
//! The chaos layer (see `netsim::faults`) decides *when* a response is
//! damaged; this module decides *what the damage looks like* at the HTTP
//! level. Three corruptions mirror what the 2016 capture rigs actually
//! saw from flaky origins and middleboxes:
//!
//! * a 5xx error page replacing the real payload ([`server_error`]),
//! * a body cut short of its declared `Content-Length` ([`truncate`]),
//! * chunked transfer encoding whose framing never terminates
//!   ([`malform_chunked`]).
//!
//! [`is_partial`] is the read side: the proxy calls it on every recorded
//! response so damaged exchanges are *kept and flagged* rather than
//! silently dropped — partial captures still carry leaks.
//!
//! Convention: an intact `Response` carries a plain (unframed) body even
//! when `Transfer-Encoding: chunked` is set — the wire serializer frames
//! it on the way out. [`malform_chunked`] deliberately breaks that
//! invariant by storing pre-framed, unterminated chunk bytes, which is
//! exactly what [`is_partial`] detects.

use crate::message::{Body, Response, StatusCode};
use crate::wire;

/// Build a 5xx error response in place of the real payload. `code` is
/// clamped into the 5xx range (anything outside becomes 503, the code
/// overloaded 2016 CDNs handed out most).
pub fn server_error(code: u16) -> Response {
    let status = if (500..=599).contains(&code) {
        StatusCode(code)
    } else {
        StatusCode(503)
    };
    appvsweb_obs::counter!("httpsim.degraded_responses");
    appvsweb_obs::event!("http.degrade", "server_error {}", status.0);
    let mut resp = Response::new(status);
    resp.set_body(Body::binary(
        format!(
            "<html><head><title>{c}</title></head><body><h1>{c} {r}</h1></body></html>",
            c = status.0,
            r = status.reason(),
        )
        .into_bytes(),
        "text/html",
    ));
    resp
}

/// Cut the body short of its declared `Content-Length`, as when an
/// origin or middlebox drops the connection mid-transfer. The header
/// keeps advertising the full length, so [`is_partial`] (and any honest
/// wire parser) sees the mismatch. An empty body gains a phantom
/// declared byte so the truncation is still observable. A run body is
/// cut arithmetically and stays a run.
pub fn truncate(resp: &mut Response) {
    appvsweb_obs::counter!("httpsim.degraded_responses");
    appvsweb_obs::event!("http.degrade", "truncated_body");
    let full = resp.body.len();
    if full == 0 {
        resp.headers.set("Content-Length", "1");
        return;
    }
    resp.headers.set("Content-Length", full.to_string());
    resp.body.truncate(full / 2);
}

/// Re-frame the body as chunked transfer encoding and then lose the
/// terminating `0\r\n\r\n` (plus the tail of the final chunk) — the
/// classic symptom of a proxy hanging up before the last flight. The
/// stored body becomes the broken framed bytes themselves, so a run
/// body is materialized here.
pub fn malform_chunked(resp: &mut Response) {
    appvsweb_obs::counter!("httpsim.degraded_responses");
    appvsweb_obs::event!("http.degrade", "malformed_chunked");
    let mut framed = wire::chunk_body(&resp.body.bytes(), 512);
    framed.truncate(framed.len().saturating_sub(7));
    resp.body = Body::new(framed, resp.body.content_type.take());
    resp.headers.remove("Content-Length");
    resp.headers.set("Transfer-Encoding", "chunked");
}

/// Whether a response shows wire-level damage: a body shorter than its
/// declared `Content-Length`, or chunked framing that fails to decode.
/// Responses flagged here are recorded as partial flows, not discarded.
/// The length check is arithmetic; only a response that declares
/// chunked framing has its body read.
pub fn is_partial(resp: &Response) -> bool {
    if let Some(cl) = resp.headers.get("Content-Length") {
        if let Ok(declared) = cl.parse::<usize>() {
            if declared > resp.body.len() {
                return true;
            }
        }
    }
    if resp
        .headers
        .get("Transfer-Encoding")
        .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
        && wire::dechunk_body(&resp.body.bytes()).is_err()
    {
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Response {
        Response::ok(Body::binary(
            (0..n).map(|i| (i % 251) as u8).collect(),
            "application/octet-stream",
        ))
    }

    #[test]
    fn intact_responses_are_not_partial() {
        assert!(!is_partial(&payload(4096)));
        assert!(!is_partial(&Response::no_content()));
        assert!(!is_partial(&server_error(503)));
    }

    #[test]
    fn server_error_clamps_to_5xx() {
        assert_eq!(server_error(502).status, StatusCode(502));
        assert_eq!(server_error(200).status, StatusCode(503));
        assert_eq!(server_error(0).status, StatusCode(503));
        assert!(!server_error(500).body.is_empty());
    }

    #[test]
    fn truncate_is_detected() {
        let mut resp = payload(1000);
        truncate(&mut resp);
        assert_eq!(resp.body.len(), 500);
        assert_eq!(resp.headers.get("Content-Length"), Some("1000"));
        assert!(is_partial(&resp));

        let mut empty = Response::no_content();
        truncate(&mut empty);
        assert!(is_partial(&empty));
    }

    #[test]
    fn malformed_chunked_is_detected() {
        let mut resp = payload(2000);
        malform_chunked(&mut resp);
        assert!(resp.headers.get("Content-Length").is_none());
        assert!(is_partial(&resp));

        let mut empty = payload(0);
        malform_chunked(&mut empty);
        assert!(is_partial(&empty));
    }

    #[test]
    fn damage_survives_a_wire_round_trip() {
        // A damaged response that is serialized and re-parsed must still
        // read as partial — the PII pipeline re-parses recorded bytes.
        let mut resp = payload(1500);
        malform_chunked(&mut resp);
        let parsed = wire::parse_response(&wire::serialize_response(&resp)).unwrap();
        assert!(is_partial(&parsed));

        // Truncated content-length fails honest parsing outright, which
        // is equally "detected".
        let mut short = payload(1000);
        truncate(&mut short);
        assert!(wire::parse_response(&wire::serialize_response(&short)).is_err());
    }
}
