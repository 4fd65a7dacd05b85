//! Background-traffic filtering (§3.2 "Filtering").
//!
//! Traces from real phones mix foreground app/browser traffic with OS
//! services. The methodology removes flows "to domains that are known to
//! be associated with OS services (e.g., Google Play Services and Apple
//! iCloud)"; this module is that step.

use crate::flow::Trace;
use appvsweb_netsim::Os;

/// Whether `host` belongs to an OS background service for `os`.
pub fn is_background_host(host: &str, os: Os) -> bool {
    let host: std::borrow::Cow<'_, str> = if host.bytes().any(|b| b.is_ascii_uppercase()) {
        host.to_ascii_lowercase().into()
    } else {
        host.into()
    };
    let dot_suffix_of = |bg: &str| {
        host.len() > bg.len()
            && host.ends_with(bg)
            && host.as_bytes()[host.len() - bg.len() - 1] == b'.'
    };
    os.background_hosts()
        .iter()
        .any(|bg| host == *bg || dot_suffix_of(bg))
}

/// Remove background-service traffic from a trace, returning the number
/// of connections removed.
pub fn strip_background(trace: &mut Trace, os: Os) -> usize {
    let doomed: Vec<u64> = trace
        .connections
        .iter()
        .filter(|c| is_background_host(&c.host, os))
        .map(|c| c.id)
        .collect();
    let before = trace.connections.len();
    trace.connections.retain(|c| !doomed.contains(&c.id));
    trace
        .transactions
        .retain(|t| !doomed.contains(&t.connection_id));
    before - trace.connections.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{ConnectionRecord, HttpTransaction};
    use appvsweb_httpsim::{Body, Request, Response, Url};
    use appvsweb_netsim::{ConnectionStats, SimTime};

    fn conn(id: u64, host: &str) -> ConnectionRecord {
        ConnectionRecord {
            id,
            host: host.into(),
            port: 443,
            tls: true,
            decrypted: true,
            opaque_reason: None,
            opened_at: SimTime(0),
            closed_at: None,
            stats: ConnectionStats::default(),
            transactions: 1,
            error: None,
        }
    }

    fn txn(conn_id: u64, host: &str) -> HttpTransaction {
        HttpTransaction {
            connection_id: conn_id,
            host: host.into(),
            plaintext: false,
            at: SimTime(0),
            request: Request::get(Url::parse(&format!("https://{host}/")).unwrap()),
            response: Response::ok(Body::text("x")),
            partial: false,
        }
    }

    #[test]
    fn background_host_matching() {
        assert!(is_background_host("play.googleapis.com", Os::Android));
        assert!(is_background_host("sub.play.googleapis.com", Os::Android));
        assert!(!is_background_host("play.googleapis.com", Os::Ios));
        assert!(is_background_host("push.apple.com", Os::Ios));
        assert!(!is_background_host("api.yelp.com", Os::Android));
    }

    #[test]
    fn strip_removes_connections_and_their_transactions() {
        let mut trace = Trace::new();
        trace.connections.push(conn(1, "api.yelp.com"));
        trace.connections.push(conn(2, "mtalk.google.com"));
        trace.transactions.push(txn(1, "api.yelp.com"));
        trace.transactions.push(txn(2, "mtalk.google.com"));
        let removed = strip_background(&mut trace, Os::Android);
        assert_eq!(removed, 1);
        assert_eq!(trace.connections.len(), 1);
        assert_eq!(trace.transactions.len(), 1);
        assert_eq!(trace.connections[0].host, "api.yelp.com");
    }

    #[test]
    fn strip_is_noop_for_clean_trace() {
        let mut trace = Trace::new();
        trace.connections.push(conn(1, "api.yelp.com"));
        assert_eq!(strip_background(&mut trace, Os::Ios), 0);
        assert_eq!(trace.connections.len(), 1);
    }
}
