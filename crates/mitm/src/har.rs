//! HAR (HTTP Archive, v1.2) export.
//!
//! The original testbed's mitmproxy dumps interoperate with standard
//! traffic tooling via HAR; the reproduction offers the same escape
//! hatch. [`to_har`] converts a captured [`Trace`] into the HAR 1.2
//! object model (JSON-serializable via `appvsweb-json`), so any HAR
//! viewer can inspect a simulated session.
//!
//! [`Trace`]: crate::Trace

use crate::flow::Trace;
use appvsweb_httpsim::codec::base64_encode;
use appvsweb_httpsim::Body;

/// Top-level HAR document.
#[derive(Clone, Debug)]
pub struct Har {
    /// The single `log` object.
    pub log: HarLog,
}

/// The HAR `log` object.
#[derive(Clone, Debug)]
pub struct HarLog {
    /// Format version (always "1.2").
    pub version: String,
    /// Producer of the file.
    pub creator: HarCreator,
    /// One entry per HTTP transaction.
    pub entries: Vec<HarEntry>,
}

/// HAR `creator` metadata.
#[derive(Clone, Debug)]
pub struct HarCreator {
    /// Tool name.
    pub name: String,
    /// Tool version.
    pub version: String,
}

/// One request/response exchange.
#[derive(Clone, Debug)]
pub struct HarEntry {
    /// Start time. HAR wants ISO 8601; simulation time is an offset from
    /// the session epoch, rendered as a fake UTC instant.
    pub started_date_time: String,
    /// Total entry time in ms (simulated).
    pub time: f64,
    /// The request.
    pub request: HarRequest,
    /// The response.
    pub response: HarResponse,
    /// Which TCP connection carried it (HAR custom field convention).
    pub connection_id: String,
    /// Whether the transaction was plaintext HTTP (custom field).
    pub plaintext: bool,
    /// Why the exchange failed or arrived damaged (custom field, the
    /// `_error` convention browsers use for aborted requests). `None`
    /// for clean exchanges.
    pub error: Option<String>,
}

/// HAR request object.
#[derive(Clone, Debug)]
pub struct HarRequest {
    /// HTTP method.
    pub method: String,
    /// Absolute URL.
    pub url: String,
    /// Protocol version string.
    pub http_version: String,
    /// Headers.
    pub headers: Vec<HarNameValue>,
    /// Decomposed query string.
    pub query_string: Vec<HarNameValue>,
    /// Body, when present.
    pub post_data: Option<HarPostData>,
    /// Total request body size.
    pub body_size: i64,
}

/// HAR response object.
#[derive(Clone, Debug)]
pub struct HarResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub status_text: String,
    /// Protocol version string.
    pub http_version: String,
    /// Headers.
    pub headers: Vec<HarNameValue>,
    /// Body content.
    pub content: HarContent,
    /// Total response body size.
    pub body_size: i64,
}

/// A name/value pair (headers, query params).
#[derive(Clone, Debug)]
pub struct HarNameValue {
    /// Name.
    pub name: String,
    /// Value.
    pub value: String,
}

/// Request body.
#[derive(Clone, Debug)]
pub struct HarPostData {
    /// Content type.
    pub mime_type: String,
    /// Body text (base64 for binary, per HAR convention with encoding).
    pub text: String,
    /// `"base64"` when `text` is encoded.
    pub encoding: Option<String>,
}

/// Response body.
#[derive(Clone, Debug)]
pub struct HarContent {
    /// Decompressed size.
    pub size: i64,
    /// Content type.
    pub mime_type: String,
    /// Body text; omitted for large opaque bodies.
    pub text: Option<String>,
    /// `"base64"` when `text` is encoded.
    pub encoding: Option<String>,
}

/// Bodies larger than this are elided from HAR output (the simulated
/// content is filler bytes; eliding keeps exports reviewable).
const MAX_INLINE_BODY: usize = 4096;

fn name_values(headers: &appvsweb_httpsim::HeaderMap) -> Vec<HarNameValue> {
    headers
        .iter()
        .map(|(n, v)| HarNameValue {
            name: n.to_string(),
            value: v.to_string(),
        })
        .collect()
}

/// Inline text (and encoding) of a body. Only bodies small enough to
/// inline are materialized; a large run body is never expanded.
fn body_text(body: &Body) -> (Option<String>, Option<String>) {
    if body.is_empty() || body.len() > MAX_INLINE_BODY {
        return (None, None);
    }
    let bytes = body.bytes();
    match std::str::from_utf8(&bytes) {
        Ok(text) => (Some(text.to_string()), None),
        Err(_) => (Some(base64_encode(&bytes)), Some("base64".to_string())),
    }
}

/// Render a simulated instant as an ISO-8601 timestamp offset from the
/// session epoch (chosen as the paper's study start date).
fn iso_time(millis: u64) -> String {
    // 2016-03-23T00:00:00Z + offset; sessions are minutes long, so only
    // the time-of-day component moves.
    let total_secs = millis / 1000;
    let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
    format!(
        "2016-03-23T{:02}:{:02}:{:02}.{:03}Z",
        h % 24,
        m,
        s,
        millis % 1000
    )
}

/// An error-status entry for a connection that died to an injected
/// fault before completing any exchange. HAR has no first-class abort
/// record, so this follows the browser devtools convention: status 0,
/// body sizes -1, and the cause in a custom `_error` field.
fn aborted_entry(conn: &crate::flow::ConnectionRecord) -> HarEntry {
    let scheme = if conn.tls { "https" } else { "http" };
    HarEntry {
        started_date_time: iso_time(conn.opened_at.as_millis()),
        time: conn.busy_ms as f64,
        request: HarRequest {
            method: "GET".into(),
            url: format!("{scheme}://{}:{}/", conn.host, conn.port),
            http_version: "".into(),
            headers: Vec::new(),
            query_string: Vec::new(),
            post_data: None,
            body_size: -1,
        },
        response: HarResponse {
            status: 0,
            status_text: "".into(),
            http_version: "".into(),
            headers: Vec::new(),
            content: HarContent {
                size: -1,
                mime_type: "x-unknown".into(),
                text: None,
                encoding: None,
            },
            body_size: -1,
        },
        connection_id: conn.id.to_string(),
        plaintext: !conn.tls,
        error: conn.error.map(|e| e.to_string()),
    }
}

/// Convert a trace to a HAR document. Completed transactions become
/// ordinary entries (flagged with `_error: "partial response"` when the
/// body arrived damaged); connections that died to a fault become
/// error-status entries instead of vanishing from the export.
pub fn to_har(trace: &Trace) -> Har {
    let mut keyed: Vec<(u64, u64, HarEntry)> = trace
        .transactions
        .iter()
        .map(|txn| {
            let req = &txn.request;
            let resp = &txn.response;
            let post_data = if req.body.is_empty() {
                None
            } else {
                let (text, encoding) = body_text(&req.body);
                Some(HarPostData {
                    mime_type: req
                        .body
                        .content_type
                        .clone()
                        .unwrap_or_else(|| "application/octet-stream".into()),
                    text: text.unwrap_or_default(),
                    encoding,
                })
            };
            let (text, encoding) = body_text(&resp.body);
            let entry = HarEntry {
                started_date_time: iso_time(txn.at.as_millis()),
                time: 1.0,
                request: HarRequest {
                    method: req.method.as_str().to_string(),
                    url: req.url.to_string(),
                    http_version: req.version.as_str().to_string(),
                    headers: name_values(&req.headers),
                    query_string: req
                        .url
                        .query_pairs()
                        .into_iter()
                        .map(|(name, value)| HarNameValue { name, value })
                        .collect(),
                    post_data,
                    body_size: req.body.len() as i64,
                },
                response: HarResponse {
                    status: resp.status.0,
                    status_text: resp.status.reason().to_string(),
                    http_version: resp.version.as_str().to_string(),
                    headers: name_values(&resp.headers),
                    content: HarContent {
                        size: resp.body.len() as i64,
                        mime_type: resp
                            .body
                            .content_type
                            .clone()
                            .unwrap_or_else(|| "application/octet-stream".into()),
                        text,
                        encoding,
                    },
                    body_size: resp.body.len() as i64,
                },
                connection_id: txn.connection_id.to_string(),
                plaintext: txn.plaintext,
                error: txn.partial.then(|| "partial response".to_string()),
            };
            (txn.at.as_millis(), txn.connection_id, entry)
        })
        .collect();
    for conn in trace.connections.iter().filter(|c| c.error.is_some()) {
        keyed.push((conn.opened_at.as_millis(), conn.id, aborted_entry(conn)));
    }
    keyed.sort_by_key(|&(at, id, _)| (at, id));
    let entries = keyed.into_iter().map(|(_, _, e)| e).collect();

    Har {
        log: HarLog {
            version: "1.2".into(),
            creator: HarCreator {
                name: "appvsweb-mitm".into(),
                version: env!("CARGO_PKG_VERSION").into(),
            },
            entries,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::HttpTransaction;
    use appvsweb_httpsim::{Body, Request, Response, Url};
    use appvsweb_netsim::SimTime;

    fn trace_with_one_txn() -> Trace {
        let mut t = Trace::new();
        let mut url = Url::parse("https://t.example.com/pixel").unwrap();
        url.push_query("uid", "42");
        t.transactions.push(HttpTransaction {
            connection_id: 7,
            host: "t.example.com".into(),
            plaintext: false,
            at: SimTime(65_250),
            request: Request::post(url, Body::form(&[("email", "a@b.com")])),
            response: Response::ok(Body::json(r#"{"ok":1}"#)),
            partial: false,
        });
        t
    }

    #[test]
    fn har_structure_and_fields() {
        let har = to_har(&trace_with_one_txn());
        assert_eq!(har.log.version, "1.2");
        assert_eq!(har.log.entries.len(), 1);
        let e = &har.log.entries[0];
        assert_eq!(e.request.method, "POST");
        assert!(e.request.url.starts_with("https://t.example.com/pixel"));
        assert_eq!(e.request.query_string[0].name, "uid");
        assert_eq!(
            e.request.post_data.as_ref().unwrap().text,
            "email=a%40b.com"
        );
        assert_eq!(e.response.status, 200);
        assert_eq!(e.connection_id, "7");
        assert_eq!(e.started_date_time, "2016-03-23T00:01:05.250Z");
    }

    #[test]
    fn large_bodies_are_elided() {
        let mut t = trace_with_one_txn();
        t.transactions[0].response.body = Body::binary(vec![0u8; 100_000], "video/mp4");
        let har = to_har(&t);
        let content = &har.log.entries[0].response.content;
        assert_eq!(content.size, 100_000);
        assert!(content.text.is_none());
    }

    #[test]
    fn binary_bodies_become_base64() {
        let mut t = trace_with_one_txn();
        t.transactions[0].response.body = Body::binary(vec![0xFF, 0xFE, 0x00], "image/gif");
        let har = to_har(&t);
        let content = &har.log.entries[0].response.content;
        assert_eq!(content.encoding.as_deref(), Some("base64"));
        assert_eq!(content.text.as_deref(), Some("//4A"));
    }

    #[test]
    fn aborted_and_partial_flows_become_error_entries() {
        use crate::flow::{ConnectionRecord, FlowError};
        use appvsweb_netsim::ConnectionStats;
        let mut t = trace_with_one_txn();
        t.transactions[0].partial = true;
        t.connections.push(ConnectionRecord {
            id: 3,
            host: "dead.example.net".into(),
            port: 443,
            tls: true,
            decrypted: false,
            opaque_reason: None,
            opened_at: SimTime(1_000),
            closed_at: Some(SimTime(1_500)),
            stats: ConnectionStats::default(),
            busy_ms: 500,
            transactions: 0,
            error: Some(FlowError::Reset),
        });
        let har = to_har(&t);
        assert_eq!(har.log.entries.len(), 2);
        // Entries sort chronologically: the abort (t=1s) leads the
        // transaction (t=65s).
        let aborted = &har.log.entries[0];
        assert_eq!(aborted.response.status, 0);
        assert_eq!(aborted.error.as_deref(), Some("connection reset"));
        assert!(aborted.request.url.contains("dead.example.net"));
        let partial = &har.log.entries[1];
        assert_eq!(partial.response.status, 200);
        assert_eq!(partial.error.as_deref(), Some("partial response"));
    }

    #[test]
    fn iso_time_rollover() {
        assert_eq!(iso_time(0), "2016-03-23T00:00:00.000Z");
        assert_eq!(iso_time(3_600_000 + 61_001), "2016-03-23T01:01:01.001Z");
    }
}

appvsweb_json::impl_json!(struct Har { log });
appvsweb_json::impl_json!(struct HarLog { version, creator, entries });
appvsweb_json::impl_json!(struct HarCreator { name, version });
appvsweb_json::impl_json!(struct HarEntry {
    started_date_time as "startedDateTime", time, request, response,
    connection_id as "_connectionId", plaintext as "_plaintext", error as "_error"
});
appvsweb_json::impl_json!(struct HarRequest {
    method, url, http_version as "httpVersion", headers, query_string as "queryString",
    post_data as "postData", body_size as "bodySize"
});
appvsweb_json::impl_json!(struct HarResponse {
    status, status_text as "statusText", http_version as "httpVersion", headers, content,
    body_size as "bodySize"
});
appvsweb_json::impl_json!(struct HarNameValue { name, value });
appvsweb_json::impl_json!(struct HarPostData { mime_type as "mimeType", text, encoding });
appvsweb_json::impl_json!(struct HarContent { size, mime_type as "mimeType", text, encoding });
