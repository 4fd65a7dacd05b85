//! Origin servers for the simulated Internet.
//!
//! One [`OriginWorld`] answers for every host a session contacts:
//! first-party APIs and pages, CDN objects, tracker beacon endpoints, and
//! the RTB ad exchanges whose 302 redirect chains bounce browsers
//! "through several more" A&A domains (paper §1). All origin
//! certificates chain to a single public root that both the devices and
//! the Meddle proxy trust.

use appvsweb_httpsim::cookie::SetCookie;
use appvsweb_httpsim::url::Scheme;
use appvsweb_httpsim::{degrade, Body, Request, Response, StatusCode, Url};
use appvsweb_mitm::OriginServer;
use appvsweb_netsim::faults::ResponseFault;
use appvsweb_netsim::{rng_labels, FaultCounts, FaultInjector, FaultPlan, SimRng, SimTime};
use appvsweb_tlssim::{CertificateAuthority, ServerConfig, TrustStore};

/// RTB exchange hosts that participate in redirect chains.
const RTB_EXCHANGES: &[&str] = &[
    "ib.adnxs.com",
    "fastlane.rubiconproject.com",
    "u.openx.net",
    "ads.pubmatic.com",
    "dsum.casalemedia.com",
    "cm.g.doubleclick.net",
    "dpm.demdex.net",
    "pixel.mathtag.com",
    "tags.bluekai.com",
];

/// The response behaviour of every origin in the simulation.
// lint:allow(D3x) world-scoped stream: OriginWorld is rebuilt per cell, so the stashed rng cannot cross cells
pub struct OriginWorld {
    ca: CertificateAuthority,
    rng: SimRng,
    /// Origin-side chaos dice (disabled by default: never draws). Fires
    /// *after* the intact response is built, corrupting it the way flaky
    /// 2016 origins and middleboxes did: 5xx substitution, truncation,
    /// broken chunked framing.
    faults: FaultInjector,
    /// Builds filler content: page, asset, script and creative bodies
    /// are `len` copies of one byte. [`Body::repeat`] (a run, no bytes
    /// allocated) unless a differential test swaps in the eager twin.
    filler: Filler,
}

/// Constructor of filler bodies: `(byte, len, content_type)`.
pub type Filler = fn(u8, usize, &str) -> Body;

impl OriginWorld {
    /// Build the world. All server certificates chain to a public root CA
    /// derived from `ca_label`.
    pub fn new(ca_label: &str, rng: SimRng) -> Self {
        OriginWorld {
            ca: CertificateAuthority::new(ca_label),
            rng,
            faults: FaultInjector::disabled(),
            filler: Body::repeat,
        }
    }

    /// Replace the filler constructor. A replacement must build bodies
    /// equal to [`Body::repeat`]'s; the differential suite sets the eager
    /// twin (`httpsim::message::reference::repeat_eager`) to prove the
    /// world's traces do not depend on the representation.
    pub fn set_filler(&mut self, filler: Filler) {
        self.filler = filler;
    }

    /// Arm the origin-side fault injector with its own labelled fork of
    /// `rng`. A plan of [`FaultPlan::none`] never draws, leaving every
    /// other stream untouched.
    pub fn set_faults(&mut self, plan: FaultPlan, rng: &SimRng) {
        self.faults = FaultInjector::new(plan, rng.fork(rng_labels::WORLD_CHAOS));
    }

    /// Take the ledger of origin-side faults injected so far, resetting
    /// it (the session runner merges this into the trace).
    pub fn take_fault_counts(&mut self) -> FaultCounts {
        self.faults.take_counts()
    }

    /// The public root CA. Devices and the Meddle proxy must trust this.
    pub fn root_ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// A trust store containing exactly this world's public root.
    pub fn public_trust(&self) -> TrustStore {
        let mut t = TrustStore::new();
        t.add_root(&self.ca.root);
        t
    }

    /// Byte size for a first-party page/app response, by path hint.
    fn content_size(&mut self, path: &str) -> usize {
        let jitter = self.rng.below(2048) as usize;
        if path.contains("video") || path.contains("stream") {
            180_000 + jitter * 20
        } else if path.contains("page") || path == "/" || path.contains("html") {
            38_000 + jitter * 4
        } else if path.contains("obj") || path.contains("asset") {
            9_000 + jitter * 3
        } else if path.contains("adjs") {
            12_000 + jitter
        } else if path.contains("creative") {
            7_000 + jitter
        } else {
            1_800 + jitter
        }
    }
}

impl OriginServer for OriginWorld {
    fn tls_config(&self, host: &str) -> ServerConfig {
        ServerConfig {
            chain: self.ca.chain_for(host),
            supports_resumption: true,
        }
    }

    fn handle(&mut self, req: &Request, now: SimTime) -> Response {
        let mut resp = self.respond(req, now);
        if let Some(fault) = self.faults.response_fault() {
            match fault {
                ResponseFault::ServerError => resp = degrade::server_error(503),
                ResponseFault::Truncated => degrade::truncate(&mut resp),
                ResponseFault::MalformedChunked => degrade::malform_chunked(&mut resp),
            }
        }
        resp
    }
}

impl OriginWorld {
    /// Build the intact response for `req` (fault injection, when armed,
    /// happens in [`OriginServer::handle`] on top of this).
    fn respond(&mut self, req: &Request, _now: SimTime) -> Response {
        let host = req.url.host.as_str();
        let path = req.url.path.as_str();

        // --- RTB redirect chains -------------------------------------
        // An ad request carrying `rtb=<hops>` bounces to another exchange
        // with the counter decremented, simulating real-time-bidding
        // cookie-sync chains. hops=0 terminates with a creative/pixel.
        if let Some(hops) = req
            .url
            .query_value("rtb")
            .and_then(|v| v.parse::<u32>().ok())
        {
            if hops > 0 {
                let candidates: Vec<&&str> = RTB_EXCHANGES.iter().filter(|e| **e != host).collect();
                let next = candidates[self.rng.below(candidates.len() as u64) as usize];
                let mut location = Url::new(Scheme::Https, *next, "/rtb");
                location.push_query("rtb", &(hops - 1).to_string());
                // Propagate the cookie-sync partner id.
                if let Some(sync) = req.url.query_value("sync") {
                    location.push_query("sync", &sync);
                }
                let mut resp = Response::redirect(&location);
                // Exchanges drop their own cookie on the way through.
                resp.add_set_cookie(
                    &SetCookie::session("uid", format!("x{:016x}", self.rng.next_u64()))
                        .with_domain(req.url.host.registrable_domain()),
                );
                return resp;
            }
            // Chain terminus: the winning creative.
            let size = self.content_size("creative");
            let mut resp = Response::new(StatusCode::OK);
            resp.set_body((self.filler)(0, size, "image/gif"));
            return resp;
        }

        // --- Tracker beacons ------------------------------------------
        if path.contains("beacon")
            || path.contains("collect")
            || path.contains("pixel")
            || path.contains("track")
            || path.contains("impression")
            || path.contains("batch")
        {
            let mut resp = Response::no_content();
            // Trackers set an id cookie on first contact.
            resp.add_set_cookie(
                &SetCookie::session(
                    "_tid",
                    format!("t{:012x}", self.rng.next_u64() & 0xffff_ffff_ffff),
                )
                .with_domain(req.url.host.registrable_domain()),
            );
            return resp;
        }

        // --- Ad creatives ----------------------------------------------
        if path.contains("creative") {
            let size = self.content_size("creative");
            return Response::ok((self.filler)(0, size, "image/gif"));
        }

        // --- Ad tag JavaScript (cacheable, ETag-validated) -------------
        if path.contains("adjs") || path.ends_with(".js") {
            let etag = format!("\"{:016x}\"", appvsweb_tlssim::KeyId::derive(path).0);
            if req.headers.get("If-None-Match") == Some(etag.as_str()) {
                let mut resp = Response::new(StatusCode(304));
                resp.headers.set("ETag", etag);
                return resp;
            }
            let size = self.content_size("adjs");
            let mut resp = Response::ok((self.filler)(b'/', size, "application/javascript"));
            resp.headers.set("Cache-Control", "public, max-age=600");
            resp.headers.set("ETag", etag);
            return resp;
        }

        // --- First-party page objects (short-lived cache entries) ------
        if path.contains("obj") {
            let etag = format!("\"{:016x}\"", appvsweb_tlssim::KeyId::derive(path).0);
            if req.headers.get("If-None-Match") == Some(etag.as_str()) {
                let mut resp = Response::new(StatusCode(304));
                resp.headers.set("ETag", etag);
                return resp;
            }
            let size = self.content_size("obj");
            let mut resp = Response::ok((self.filler)(b'.', size, "application/octet-stream"));
            resp.headers.set("Cache-Control", "public, max-age=15");
            resp.headers.set("ETag", etag);
            return resp;
        }

        // --- First-party login ----------------------------------------
        if path.contains("login") || path.contains("auth") {
            let mut resp = Response::ok(Body::json(r#"{"status":"ok","session":"established"}"#));
            resp.add_set_cookie(&SetCookie::session(
                "session",
                format!("s{:016x}", self.rng.next_u64()),
            ));
            return resp;
        }

        // --- Generic content ------------------------------------------
        let size = self.content_size(path);
        let content_type = if path.contains("page") || path == "/" {
            "text/html"
        } else if path.contains("api") {
            "application/json"
        } else {
            "application/octet-stream"
        };
        Response::ok((self.filler)(b'.', size, content_type))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> OriginWorld {
        OriginWorld::new("PublicRoot", SimRng::new(5))
    }

    fn get(url: &str) -> Request {
        Request::get(Url::parse(url).unwrap())
    }

    #[test]
    fn tls_config_covers_any_host() {
        let w = world();
        let cfg = w.tls_config("api.yelp.com");
        assert!(cfg.chain.leaf().unwrap().matches_host("api.yelp.com"));
        assert!(w.public_trust().verify(&cfg.chain, "api.yelp.com", 0));
    }

    #[test]
    fn rtb_chain_redirects_and_terminates() {
        let mut w = world();
        let r1 = w.handle(&get("https://ib.adnxs.com/rtb?rtb=2&sync=abc"), SimTime(0));
        assert!(r1.status.is_redirect());
        let next = r1.redirect_target().unwrap();
        assert_ne!(
            next.host.as_str(),
            "ib.adnxs.com",
            "chain must hop to a different exchange"
        );
        assert!(next.query.as_deref().unwrap().contains("rtb=1"));
        assert!(next.query.as_deref().unwrap().contains("sync=abc"));
        // Follow to terminus.
        let r2 = w.handle(&get(&next.to_string()), SimTime(1));
        let last = r2.redirect_target().unwrap();
        let r3 = w.handle(&get(&last.to_string()), SimTime(2));
        assert!(r3.status.is_success());
        assert!(r3.body.len() > 1000, "chain ends with the winning creative");
    }

    #[test]
    fn beacons_get_no_content_plus_cookie() {
        let mut w = world();
        let resp = w.handle(&get("https://z.moatads.com/beacon?uid=1"), SimTime(0));
        assert_eq!(resp.status, StatusCode::NO_CONTENT);
        assert_eq!(resp.set_cookies().len(), 1);
    }

    #[test]
    fn login_sets_session_cookie() {
        let mut w = world();
        let resp = w.handle(&get("https://grubhub.com/login"), SimTime(0));
        assert!(resp.status.is_success());
        assert!(resp
            .set_cookies()
            .iter()
            .any(|c| c.cookie.name == "session"));
    }

    #[test]
    fn content_sizes_by_kind() {
        let mut w = world();
        let page = w
            .handle(&get("https://cnn.com/page/1"), SimTime(0))
            .body
            .len();
        let asset = w
            .handle(&get("https://cnn.com/obj/7.png"), SimTime(0))
            .body
            .len();
        let video = w
            .handle(&get("https://streamflix.example/video/seg1"), SimTime(0))
            .body
            .len();
        assert!(video > page && page > asset);
    }
}
