//! Drive the Meddle/mitmproxy substrate directly: intercept a custom
//! origin, inspect decrypted transactions, and watch certificate pinning
//! defeat the proxy — the exact behaviours that shaped the paper's
//! service-selection criteria.
//!
//! ```text
//! cargo run --release --example mitm_inspect
//! ```

use appvsweb::httpsim::{Body, Request, Response, Url};
use appvsweb::mitm::{Meddle, MeddleConfig, OriginServer, ReusePolicy};
use appvsweb::netsim::{SimRng, SimTime};
use appvsweb::tlssim::{CertificateAuthority, PinSet, ServerConfig, TrustStore};

/// A small custom origin: a login API under a public CA.
struct DemoOrigin {
    ca: CertificateAuthority,
}

impl OriginServer for DemoOrigin {
    fn tls_config(&self, host: &str) -> ServerConfig {
        ServerConfig {
            chain: self.ca.chain_for(host),
            supports_resumption: true,
        }
    }
    fn handle(&mut self, req: &Request, _now: SimTime) -> Response {
        if req.url.path.contains("login") {
            Response::ok(Body::json(r#"{"token":"tk_81f4c"}"#))
        } else {
            Response::ok(Body::json(r#"{"items":[1,2,3]}"#))
        }
    }
}

fn main() {
    // Build the world: a public CA every server chains to…
    let public_ca = CertificateAuthority::new("PublicRoot");
    let mut origin = DemoOrigin {
        ca: public_ca.clone(),
    };
    let mut upstream = TrustStore::new();
    upstream.add_root(&public_ca.root);

    // …and the Meddle tunnel, whose CA we install on the "device".
    let mut meddle = Meddle::new(MeddleConfig::default(), upstream.clone(), &SimRng::new(42));
    let mut device_trust = TrustStore::new();
    device_trust.add_root(&public_ca.root);
    device_trust.add_root(&meddle.ca().root);
    println!(
        "installed proxy CA {} on the device\n",
        meddle.ca().root.subject
    );

    // 1. An HTTPS login: decrypted in flight.
    let login = Request::post(
        Url::parse("https://api.demo.example/v1/login").unwrap(),
        Body::form(&[("email", "jane@testmail.example"), ("password", "hunter2!")]),
    );
    meddle
        .exchange(
            &device_trust,
            &PinSet::none(),
            &mut origin,
            login,
            SimTime(0),
            ReusePolicy::app(),
        )
        .expect("interception succeeds");

    // 2. A plaintext beacon: visible without any interception at all.
    let beacon = Request::get(
        Url::parse("http://tracker.demo.example/pixel?gaid=aaaa-bbbb&lat=42.36").unwrap(),
    );
    meddle
        .exchange(
            &device_trust,
            &PinSet::none(),
            &mut origin,
            beacon,
            SimTime(50),
            ReusePolicy::one_shot(),
        )
        .expect("plaintext always flows");

    // 3. A pinned client (the Facebook/Twitter case): interception fails.
    let pinned_leaf = origin
        .tls_config("pinned.demo.example")
        .chain
        .leaf()
        .unwrap()
        .key;
    let pins = PinSet::of([pinned_leaf]);
    let pinned_req = Request::get(Url::parse("https://pinned.demo.example/feed").unwrap());
    let err = meddle
        .exchange(
            &device_trust,
            &pins,
            &mut origin,
            pinned_req,
            SimTime(90),
            ReusePolicy::app(),
        )
        .expect_err("pinning must defeat the forged chain")
        .error;
    println!("pinned client rejected the proxy: {err}\n");

    // Inspect the capture, mitmproxy-style.
    let trace = meddle.finish_session(SimTime(100));
    println!(
        "captured {} connections, {} decrypted transactions:\n",
        trace.connections.len(),
        trace.transactions.len()
    );
    for conn in &trace.connections {
        println!(
            "  conn #{:<2} {:<28} tls={:<5} decrypted={:<5} {:>6} bytes  {:?}",
            conn.id,
            format!("{}:{}", conn.host, conn.port),
            conn.tls,
            conn.decrypted,
            conn.stats.total_bytes(),
            conn.opaque_reason,
        );
    }
    println!();
    for txn in &trace.transactions {
        let raw = txn.request_bytes();
        let first_line = String::from_utf8_lossy(&raw);
        let first_line = first_line.lines().next().unwrap_or("");
        println!(
            "  {} {} [{}]",
            if txn.plaintext { "HTTP " } else { "HTTPS" },
            first_line,
            txn.host
        );
        if !txn.request.body.is_empty() {
            println!("        body: {}", txn.request.body.as_text());
        }
    }
    println!("\nnote: the pinned connection produced no transaction — exactly why the");
    println!("paper had to exclude Facebook and Twitter from the measured set (§3.1).");
}
