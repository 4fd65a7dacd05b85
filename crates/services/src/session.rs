//! Session simulation: four minutes of manual interaction (§3.2).
//!
//! A [`SessionRunner`] reproduces the study's test procedure for one
//! (service, OS, medium) cell: install/open the app or browse to the
//! site, approve permission prompts, log in with the pre-created
//! account, then use the service for the session duration. The traffic
//! that interaction generates — first-party API calls, SDK beacons, ad
//! tags, RTB redirect chains, OS background chatter — flows through the
//! Meddle tunnel, which captures the [`Trace`] the analysis pipeline
//! consumes.
//!
//! Everything is scheduled on a deterministic event queue; the same
//! `(spec, os, medium, seed)` cell always produces the identical trace.

use crate::catalog::{cell_label, Exclusion, Medium, ServiceSpec};
use crate::trackers::{self, PayloadStyle, TrackerSpec};
use crate::world::OriginWorld;
use appvsweb_httpsim::cache::{BrowserCache, CacheAdvice};
use appvsweb_httpsim::codec::base64_encode;
use appvsweb_httpsim::compress::gzip_compress;
use appvsweb_httpsim::headers::HeaderText;
use appvsweb_httpsim::url::Scheme;
use appvsweb_httpsim::{Body, CookieJar, Request, Response, Url};
use appvsweb_mitm::{ExchangeError, Meddle, OriginServer, ReusePolicy, Trace};
use appvsweb_netsim::{rng_labels, EventQueue, FaultPlan, Os, SimDuration, SimRng, SimTime};
use appvsweb_pii::{GroundTruth, PiiType};
use appvsweb_tlssim::{PinSet, TrustStore};
use std::borrow::Cow;

/// Session parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Interaction time (the paper uses 4 minutes; its §3.2 control uses
    /// 10 for a subset).
    pub duration: SimDuration,
    /// Experiment seed.
    pub seed: u64,
    /// Apply the §3.2 background-traffic filter before returning.
    pub strip_background: bool,
    /// Fault plan for the session's network and origins. The default
    /// ([`FaultPlan::none`]) never draws from any RNG stream, so the
    /// golden-path trace is byte-identical to a build without chaos.
    pub faults: FaultPlan,
    /// How the simulated client retries transient network failures.
    pub retry: RetryPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            duration: SimDuration::from_mins(4),
            seed: 2016,
            strip_background: true,
            faults: FaultPlan::none(),
            retry: RetryPolicy::standard(),
        }
    }
}

/// Client-side retry behaviour: capped exponential backoff with jitter,
/// bounded per attempt and per session. Mirrors what mobile HTTP stacks
/// of the era (OkHttp, NSURLSession) did for idempotent requests.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff delay.
    pub max_delay_ms: u64,
    /// Fraction of the delay added as seeded random jitter (0.0 = none).
    pub jitter: f64,
    /// Retry budget for the whole session; once spent, failures are
    /// surfaced immediately. Prevents retry storms under heavy plans.
    pub session_budget: u32,
}

impl RetryPolicy {
    /// The default client: 3 attempts, 250 ms base doubling to 4 s, 20%
    /// jitter, at most 64 retries per session.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 250,
            max_delay_ms: 4_000,
            jitter: 0.2,
            session_budget: 64,
        }
    }

    /// Never retry: every transient failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter: 0.0,
            session_budget: 0,
        }
    }

    /// Backoff before retry number `attempt` (0-based). Draws from `rng`
    /// only when jitter applies — the golden path, which never retries,
    /// never touches the stream.
    pub fn backoff_ms(&self, attempt: u32, rng: &mut SimRng) -> u64 {
        let base = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        let span = (base as f64 * self.jitter) as u64;
        if span == 0 {
            base
        } else {
            base + rng.below(span + 1)
        }
    }
}

appvsweb_json::impl_json!(struct RetryPolicy {
    max_attempts, base_delay_ms, max_delay_ms, jitter, session_budget
});

/// One test cell: a service exercised via one medium on one OS.
pub struct SessionRunner<'a> {
    /// Service under test.
    pub spec: &'a ServiceSpec,
    /// Test phone OS.
    pub os: Os,
    /// App or Web.
    pub medium: Medium,
}

#[derive(Clone, Debug)]
enum Action {
    Login,
    ProfileSync,
    ApiCall(u32),
    SdkInit(usize),
    Beacon(usize, u32),
    PageView(u32),
    Background(u32),
}

/// The session's network stack: the tunnel, the origin world, and the
/// client retry loop wrapped behind one `exchange` call. Transient
/// failures (timeouts, resets, aborted handshakes, SERVFAIL) are retried
/// with backoff; hard failures (pin violations, untrusted chains,
/// NXDOMAIN) surface immediately.
// lint:allow(D3) the jitter stream is forked per session and NetCtx never outlives its cell
struct NetCtx<'a> {
    meddle: &'a mut Meddle,
    world: &'a mut OriginWorld,
    trust: &'a TrustStore,
    pins: PinSet,
    retry: RetryPolicy,
    /// Jitter stream; drawn from only when a retry actually happens, so
    /// the golden path never consumes it.
    rng: SimRng,
    retries_spent: u32,
}

impl NetCtx<'_> {
    /// Exchange with the session's pin set (the service's own pins).
    fn exchange(
        &mut self,
        req: Request,
        now: SimTime,
        reuse: ReusePolicy,
    ) -> Result<&Response, ExchangeError> {
        self.exchange_impl(req, now, reuse, false)
    }

    /// Exchange with no pins (OS background services pin nothing).
    fn exchange_unpinned(
        &mut self,
        req: Request,
        now: SimTime,
        reuse: ReusePolicy,
    ) -> Result<&Response, ExchangeError> {
        self.exchange_impl(req, now, reuse, true)
    }

    /// The retry loop. The request moves into the tunnel on every
    /// attempt and comes back only with a failure, so an exchange that
    /// succeeds first time copies nothing; the response is then lent
    /// from the capture ([`Meddle::last_response`]).
    fn exchange_impl(
        &mut self,
        mut req: Request,
        now: SimTime,
        reuse: ReusePolicy,
        unpinned: bool,
    ) -> Result<&Response, ExchangeError> {
        let no_pins = PinSet::none();
        let pins = if unpinned { &no_pins } else { &self.pins };
        let mut at = now;
        let mut attempt = 0u32;
        loop {
            let failed = match self
                .meddle
                .exchange(self.trust, pins, self.world, req, at, reuse)
            {
                Ok(()) => break,
                Err(failed) => failed,
            };
            attempt += 1;
            let err = failed.error;
            if !err.retriable()
                || attempt >= self.retry.max_attempts
                || self.retries_spent >= self.retry.session_budget
            {
                return Err(err);
            }
            self.retries_spent += 1;
            appvsweb_obs::counter!("session.retries");
            appvsweb_obs::event!("session.retry", "attempt={attempt} after {err:?}");
            let backoff = self.retry.backoff_ms(attempt - 1, &mut self.rng);
            appvsweb_obs::histogram!("session.backoff_ms", backoff);
            at += SimDuration(backoff);
            req = *failed.request;
        }
        self.meddle.last_response().ok_or(ExchangeError::Internal(
            "successful exchange left no response",
        ))
    }
}

impl SessionRunner<'_> {
    /// Run the session and return the captured trace.
    // lint:allow(T1) the session renders its account's PII into simulated traffic by design; mitm observes it at the capture point
    pub fn run(
        &self,
        meddle: &mut Meddle,
        world: &mut OriginWorld,
        device_trust: &TrustStore,
        truth: &GroundTruth,
        cfg: &SessionConfig,
    ) -> Trace {
        Session::new(self, truth).run(meddle, world, device_trust, cfg)
    }
}

/// One running session: the cell, its account, and what every request
/// of the session repeats — the client's hosts, its `User-Agent` and the
/// rendered device identifiers — computed once instead of per request.
struct Session<'a> {
    spec: &'a ServiceSpec,
    os: Os,
    medium: Medium,
    truth: &'a GroundTruth,
    /// `api.<primary domain>`, the app's API host.
    api_host: String,
    /// `www.<primary domain>`, the site's host.
    www_host: String,
    /// The app's `User-Agent`, or the phone browser's (`'static`, so
    /// Web requests share it without a copy).
    user_agent: HeaderText,
    /// The device identifiers as SDKs transmit them on this OS.
    device_ids: Vec<(&'static str, String)>,
    /// GPS coordinates at the 4-decimal precision SDKs and APIs send.
    gps: Option<(String, String)>,
}

/// Transmission parameters: static keys, values borrowed from the
/// session where they can be.
type Params<'a> = Vec<(&'static str, Cow<'a, str>)>;

impl<'a> Session<'a> {
    fn new(runner: &SessionRunner<'a>, truth: &'a GroundTruth) -> Self {
        let (spec, os, medium) = (runner.spec, runner.os, runner.medium);
        let user_agent = match medium {
            Medium::App => HeaderText::Owned(format!(
                "{}/4.1 ({}; {})",
                spec.name.replace(' ', ""),
                os,
                os.device_model()
            )),
            Medium::Web => HeaderText::Borrowed(os.browser_user_agent()),
        };
        Session {
            spec,
            os,
            medium,
            truth,
            api_host: format!("api.{}", spec.primary_domain()),
            www_host: format!("www.{}", spec.primary_domain()),
            user_agent,
            device_ids: device_id_params(truth, os),
            gps: truth.gps_at_precision(4),
        }
    }

    /// Run the session and return the captured trace.
    fn run(
        &self,
        meddle: &mut Meddle,
        world: &mut OriginWorld,
        device_trust: &TrustStore,
        cfg: &SessionConfig,
    ) -> Trace {
        let mut rng =
            SimRng::new(cfg.seed).fork(&rng_labels::session(self.spec.id, self.os, self.medium));
        appvsweb_obs::stamp(0);
        let _span = appvsweb_obs::span!(
            "session.run",
            "{}",
            cell_label(self.spec.id, self.os, self.medium)
        );
        let end = SimTime::ZERO + cfg.duration;
        let mut queue: EventQueue<Action> = EventQueue::new();
        let mut jar = CookieJar::new(); // private mode: fresh, discarded after
        let mut cache = BrowserCache::new(); // cold cache per session

        // Pinned apps refuse the proxy's forged chains for their own
        // hosts (criterion 4 exclusions: Facebook, Twitter).
        let pins = if self.spec.excluded == Some(Exclusion::CertificatePinning) {
            // lint:allow(R1) reviewed invariant: the world CA always issues a non-empty chain
            let leaf = world.tls_config(&self.api_host).chain.leaf().unwrap().key;
            PinSet::of([leaf])
        } else {
            PinSet::none()
        };

        // Arm the chaos dice. With the default none-plan these injectors
        // never draw, and the trace is identical to a fault-free build.
        meddle.set_faults(cfg.faults.clone(), &rng);
        world.set_faults(cfg.faults.clone(), &rng);
        let mut net = NetCtx {
            meddle: &mut *meddle,
            world: &mut *world,
            trust: device_trust,
            pins,
            retry: cfg.retry.clone(),
            rng: rng.fork(rng_labels::RETRY),
            retries_spent: 0,
        };

        // ---- Schedule the interaction -------------------------------
        if self.spec.requires_login {
            queue.schedule(SimTime(1_500), Action::Login);
        }
        match self.medium {
            Medium::App => {
                for (i, _) in self.spec.app.trackers.iter().enumerate() {
                    queue.schedule(SimTime(800 + 150 * i as u64), Action::SdkInit(i));
                }
                queue.schedule(SimTime(2_500), Action::ApiCall(0));
                if !self.app_first_party_pii().is_empty() {
                    queue.schedule(SimTime(5_000), Action::ProfileSync);
                }
            }
            Medium::Web => {
                queue.schedule(SimTime(1_000), Action::PageView(0));
                if !self.spec.web.first_party_pii.is_empty() && self.web_pii_enabled() {
                    queue.schedule(SimTime(9_000), Action::ProfileSync);
                }
            }
        }
        // OS background chatter every ~35 s (exercises the §3.2 filter).
        queue.schedule(SimTime(4_000), Action::Background(0));

        // ---- Event loop ----------------------------------------------
        while let Some((now, action)) = queue.pop() {
            if now > end {
                break;
            }
            appvsweb_obs::stamp(now.as_millis());
            appvsweb_obs::counter!("session.actions");
            appvsweb_obs::event!("session.action", "{action:?}");
            match action {
                Action::Login => self.do_login(&mut net, &mut jar, now),
                Action::ProfileSync => self.do_profile_sync(&mut net, &mut jar, now),
                Action::ApiCall(n) => {
                    self.do_api_call(&mut net, n, now);
                    queue.schedule(
                        now + SimDuration(self.spec.app.api_period_ms.max(1_000)),
                        Action::ApiCall(n + 1),
                    );
                }
                Action::SdkInit(i) => {
                    let tracker = trackers::by_id(self.spec.app.trackers[i]);
                    self.do_beacon(&mut net, tracker, 0, now);
                    if tracker.beacon_period_ms > 0 {
                        queue.schedule(
                            now + SimDuration(tracker.beacon_period_ms),
                            Action::Beacon(i, 1),
                        );
                    }
                }
                Action::Beacon(i, n) => {
                    let tracker = trackers::by_id(self.spec.app.trackers[i]);
                    self.do_beacon(&mut net, tracker, n, now);
                    queue.schedule(
                        now + SimDuration(tracker.beacon_period_ms.max(250)),
                        Action::Beacon(i, n + 1),
                    );
                }
                Action::PageView(n) => {
                    self.do_page_view(&mut net, &mut jar, &mut cache, &mut rng, n, now);
                    queue.schedule(
                        now + SimDuration(self.spec.web.page_period_ms.max(4_000)),
                        Action::PageView(n + 1),
                    );
                }
                Action::Background(n) => {
                    let hosts = self.os.background_hosts();
                    let host = hosts[(n as usize) % hosts.len()];
                    let url = Url::new(Scheme::Https, host, "/sync");
                    let req = Request::get(url).with_user_agent(self.user_agent.clone());
                    let _ = net.exchange_unpinned(req, now, ReusePolicy::app());
                    queue.schedule(now + SimDuration(35_000), Action::Background(n + 1));
                }
            }
        }

        let retries = net.retries_spent;
        let mut trace = meddle.finish_session(end);
        trace.faults.merge(&world.take_fault_counts());
        trace.retries = retries as u64;
        if cfg.strip_background {
            appvsweb_mitm::filter::strip_background(&mut trace, self.os);
        }
        trace
    }

    // ---- request builders --------------------------------------------

    /// Whether the Web page exposes PII on this OS (the `pii_ios_only`
    /// calibration knob for Table 1's Android/iOS web gap).
    fn web_pii_enabled(&self) -> bool {
        !(self.spec.web.pii_ios_only && self.os == Os::Android)
    }

    /// First-party PII for the app on this OS (base + per-OS extras).
    fn app_first_party_pii(&self) -> Vec<PiiType> {
        let mut v: Vec<PiiType> = self.spec.app.first_party_pii.to_vec();
        match self.os {
            Os::Android => v.extend_from_slice(self.spec.app.android_only_pii),
            Os::Ios => v.extend_from_slice(self.spec.app.ios_only_pii),
        }
        v
    }

    fn do_login(&self, net: &mut NetCtx, jar: &mut CookieJar, now: SimTime) {
        let truth = self.truth;
        // Credentials to the first party over HTTPS: NOT a leak by rule.
        let url = Url::new(Scheme::Https, &self.www_host, "/account/login");
        let body = Body::form(&[("email", &truth.email), ("password", &truth.password)]);
        let req = Request::post(url, body).with_user_agent(self.user_agent.clone());
        if let Ok(resp) = net.exchange(req, now, self.reuse_policy()) {
            for sc in resp.set_cookies() {
                jar.store(&self.www_host, sc);
            }
        }

        // §4.2 case studies: the password also goes to a third party
        // (over HTTPS) — taplytics/usablenet/gigya.
        let password_sink = match self.medium {
            Medium::App => self.spec.app.password_to,
            Medium::Web => self.spec.web.password_to,
        };
        if let Some(tracker_id) = password_sink {
            let tracker = trackers::by_id(tracker_id);
            let url = Url::new(Scheme::Https, tracker.primary_host(), "/v1/auth/track");
            let body = Body::form(&[
                ("login", &truth.email),
                ("password", &truth.password),
                ("svc", self.spec.id),
            ]);
            let req = Request::post(url, body).with_user_agent(self.user_agent.clone());
            let _ = net.exchange(req, now, ReusePolicy::one_shot());
        }
    }

    fn do_profile_sync(&self, net: &mut NetCtx, jar: &mut CookieJar, now: SimTime) {
        let pii = match self.medium {
            Medium::App => self.app_first_party_pii(),
            Medium::Web => self.spec.web.first_party_pii.to_vec(),
        };
        if pii.is_empty() {
            return;
        }
        let host = match self.medium {
            Medium::App => &self.api_host,
            Medium::Web => &self.www_host,
        };
        let mut params: Params = vec![("action", "profile_save".into())];
        for t in pii {
            self.push_pii_params(&mut params, t, None);
        }
        let url = Url::new(Scheme::Https, host, "/account/profile");
        let mut req = Request::post(url, Body::form(&pairs_of(&params)))
            .with_user_agent(self.user_agent.clone());
        if let Some(cookie) = jar.cookie_header(host, "/account/profile", true) {
            req.headers.set("Cookie", cookie);
        }
        let _ = net.exchange(req, now, self.reuse_policy());
    }

    fn do_api_call(&self, net: &mut NetCtx, n: u32, now: SimTime) {
        // Every fourth call on a sloppy API goes over plaintext HTTP —
        // that is how "encrypted-looking" apps still leak to eavesdroppers.
        let plaintext = self.spec.app.plaintext_api && n % 4 == 3;
        let scheme = if plaintext {
            Scheme::Http
        } else {
            Scheme::Https
        };
        // Endpoints follow the service's domain: a weather app polls
        // forecasts, a shop browses products, a news app pulls articles.
        let resource = match self.spec.category {
            crate::catalog::ServiceCategory::Weather => "forecast",
            crate::catalog::ServiceCategory::News => "articles",
            crate::catalog::ServiceCategory::Shopping => "products",
            crate::catalog::ServiceCategory::Music => "stream",
            crate::catalog::ServiceCategory::Entertainment => "video",
            crate::catalog::ServiceCategory::Travel => "fares",
            crate::catalog::ServiceCategory::Lifestyle => "places",
            crate::catalog::ServiceCategory::Education => "lessons",
            crate::catalog::ServiceCategory::Social => "feed",
            crate::catalog::ServiceCategory::Business => "boards",
        };
        let mut url = Url::new(scheme, &self.api_host, format!("/api/v2/{resource}/{n}"));
        // Location-aware apps put coordinates on their own API calls.
        if self.spec.app.requests_location {
            if let Some((lat, lon)) = &self.gps {
                url.push_query("lat", lat);
                url.push_query("lon", lon);
            }
        }
        let req = Request::get(url).with_user_agent(self.user_agent.clone());
        let _ = net.exchange(req, now, self.reuse_policy());
    }

    fn do_beacon(&self, net: &mut NetCtx, tracker: &TrackerSpec, beacon_index: u32, now: SimTime) {
        let init = beacon_index == 0;
        let mut params: Params = vec![
            ("sdk", format!("{}-android-ios-2.9", tracker.id).into()),
            ("ev", if init { "init" } else { "hb" }.into()),
        ];
        // SDK chattiness is per-tracker: some send the identifier once at
        // init, others attach PII to every heartbeat (the Table 2 leak
        // averages span 0.2 to 517 per service because of exactly this).
        let carries_pii = match tracker.pii_every_n {
            0 => init,
            n => beacon_index.is_multiple_of(n),
        };
        if carries_pii {
            for &t in tracker.app_collects {
                if !self.app_allows(t) {
                    continue;
                }
                // The hardware model never changes: SDKs report it once,
                // at init (keeps Table 3's Device-Name leak averages at
                // the paper's ~2.7 rather than hundreds).
                if t == PiiType::DeviceInfo && !init {
                    continue;
                }
                self.push_pii_params(&mut params, t, Some(tracker.id));
            }
        }
        let host = tracker.hosts[now.as_millis() as usize % tracker.hosts.len()];
        let scheme = if tracker.plaintext {
            Scheme::Http
        } else {
            Scheme::Https
        };
        let req = build_payload(scheme, host, tracker.style, &params);
        let _ = net.exchange(
            req.with_user_agent(self.user_agent.clone()),
            now,
            ReusePolicy::app(),
        );
        // Ad-serving SDKs pull a creative with each refresh — the bulk of
        // app-side A&A bytes (Fig. 1c's positive tail).
        if tracker.creative_bytes > 0 {
            let url = Url::new(scheme, host, format!("/creative/{beacon_index}"));
            let req = Request::get(url).with_user_agent(self.user_agent.clone());
            let _ = net.exchange(req, now, ReusePolicy::app());
        }
    }

    /// Platform/permission gate for SDK data access.
    fn app_allows(&self, t: PiiType) -> bool {
        match t {
            PiiType::UniqueId | PiiType::DeviceInfo => true,
            PiiType::Location => self.spec.app.requests_location && truth_has_gps(),
            PiiType::Email | PiiType::Gender | PiiType::Name | PiiType::Username => {
                self.spec.app.shares_profile_with_sdks
            }
            _ => false,
        }
    }

    // lint:allow(T1) simulated page-view transmissions carry PII by design; mitm observes them at the capture point
    fn do_page_view(
        &self,
        net: &mut NetCtx,
        jar: &mut CookieJar,
        cache: &mut BrowserCache,
        rng: &mut SimRng,
        n: u32,
        now: SimTime,
    ) {
        let www = self.www_host.as_str();
        let page = format!("https://{www}/page/{n}");
        let plaintext_page = self.spec.web.plaintext_site && n % 2 == 1;
        let scheme = if plaintext_page {
            Scheme::Http
        } else {
            Scheme::Https
        };

        // 1. The page itself. Sites that key content on location put it
        // in the page URL — over HTTP on plaintext sites, a textbook leak.
        let mut page_url = Url::new(scheme, www, format!("/page/{n}"));
        if self.web_pii_enabled() && self.spec.web.exposes.contains(&PiiType::Location) {
            if let Some((lat, lon)) = self.truth.gps_at_precision(3) {
                page_url.push_query("loc", &format!("{lat},{lon}"));
            }
        }
        let mut req = Request::get(page_url).with_user_agent(self.user_agent.clone());
        if let Some(cookie) = jar.cookie_header(www, "/", scheme == Scheme::Https) {
            req.headers.set("Cookie", cookie);
        }
        if let Ok(resp) = net.exchange(req, now, ReusePolicy::browser()) {
            for sc in resp.set_cookies() {
                jar.store(www, sc);
            }
        }

        // 2. First-party content objects (batched 4 per fetch; shared
        // assets recur across pages, so the browser cache serves repeats
        // fresh or via ETag revalidation).
        let fetches = (self.spec.web.objects_per_page as usize).div_ceil(4);
        for i in 0..fetches {
            let path = format!("/obj/{i}");
            self.fetch_cached(net, cache, www, &path, &page, ReusePolicy::browser(), now);
        }

        // 3. Ad tags + beacons. Only the first two tags whose collection
        // set intersects the page's data layer actually receive PII (data
        // layer wiring is per-integration work; the long tail of tags gets
        // cookies only), and most tags receive it on the landing pages
        // only. This is what keeps web-side leak counts per tracker small
        // (GA web avg ≈ 2.7 in Table 2) while web *contact* counts stay
        // large.
        let mut pii_tags_remaining = 3u32;
        for id in self.spec.web.ad_networks {
            let tracker = trackers::by_id(id);
            let host = tracker.primary_host();
            // Tag JavaScript: requested every page, but the browser cache
            // answers repeats (max-age=600 outlives the session).
            let path = format!("/adjs/{}.js", tracker.id);
            self.fetch_cached(net, cache, host, &path, &page, ReusePolicy::one_shot(), now);
            // Beacon with whatever the page exposes AND the tag collects.
            let mut params: Params = vec![("v", "1".into()), ("dl", page.as_str().into())];
            let tag_matches = tracker
                .web_collects
                .iter()
                .any(|t| self.spec.web.exposes.contains(t));
            let page_eligible = n < 2 || tracker.web_pii_all_pages;
            if self.web_pii_enabled() && tag_matches && page_eligible && pii_tags_remaining > 0 {
                if !tracker.web_pii_all_pages {
                    pii_tags_remaining -= 1;
                }
                for &t in tracker.web_collects {
                    if self.spec.web.exposes.contains(&t) {
                        self.push_pii_params(&mut params, t, Some(tracker.id));
                    }
                }
            }
            let scheme = if tracker.plaintext {
                Scheme::Http
            } else {
                Scheme::Https
            };
            let mut req = build_payload(scheme, host, tracker.style, &params)
                .with_user_agent(self.user_agent.clone());
            if let Some(cookie) = jar.cookie_header(host, "/", scheme == Scheme::Https) {
                req.headers.set("Cookie", cookie);
            }
            if let Ok(resp) = net.exchange(req, now, ReusePolicy::one_shot()) {
                for sc in resp.set_cookies() {
                    jar.store(host, sc);
                }
            }
        }

        // 4. RTB redirect chains ("browsers redirect through several more
        // [trackers] via real-time bidding", §1).
        if self.spec.web.rtb_depth > 0 {
            let exchanges: Vec<&TrackerSpec> = self
                .spec
                .web
                .ad_networks
                .iter()
                .map(|id| trackers::by_id(id))
                .filter(|t| t.rtb_exchange)
                .collect();
            // Three ad slots auction per page; the exchange rotation walks
            // the tag list across pages.
            let slots = exchanges.len().min(3);
            for k in 0..slots {
                let tracker = exchanges[(n as usize * slots + k) % exchanges.len()];
                let mut url = Url::new(Scheme::Https, tracker.primary_host(), "/rtb");
                url.push_query("rtb", &self.spec.web.rtb_depth.to_string());
                url.push_query("sync", &format!("c{:08x}", rng.next_u64() as u32));
                let mut hops = 0u8;
                let mut next = url;
                // Follow the 302 chain, one fresh connection per hop.
                loop {
                    let host = next.host.clone();
                    let req = Request::get(next)
                        .with_user_agent(self.user_agent.clone())
                        .with_referer(page.clone());
                    let Ok(resp) = net.exchange(req, now, ReusePolicy::one_shot()) else {
                        break;
                    };
                    for sc in resp.set_cookies() {
                        jar.store(host.as_str(), sc);
                    }
                    match resp.redirect_target() {
                        Some(target) if hops < 8 => {
                            hops += 1;
                            next = target;
                        }
                        _ => break,
                    }
                }
            }
        }
    }

    /// Fetch `https://host{path}` (referred by `page`) through the
    /// browser cache: a fresh entry is served locally, with no request
    /// built at all; a stale one is revalidated.
    #[allow(clippy::too_many_arguments)]
    fn fetch_cached(
        &self,
        net: &mut NetCtx,
        cache: &mut BrowserCache,
        host: &str,
        path: &str,
        page: &str,
        reuse: ReusePolicy,
        now: SimTime,
    ) {
        let key = format!("https://{host}{path}");
        let advice = cache.advise(&key, now.as_millis());
        if advice == CacheAdvice::Fresh {
            return; // served locally, no network traffic
        }
        let mut req = Request::get(Url::new(Scheme::Https, host, path))
            .with_user_agent(self.user_agent.clone())
            .with_referer(page.to_owned());
        cache.apply(&mut req, &advice);
        if let Ok(resp) = net.exchange(req, now, reuse) {
            cache.store(&key, resp, now.as_millis());
        }
    }

    fn reuse_policy(&self) -> ReusePolicy {
        match self.medium {
            Medium::App => ReusePolicy::app(),
            Medium::Web => ReusePolicy::browser(),
        }
    }

    /// Append the PII of type `t` as transmission parameters, using the
    /// encoding conventions of the receiving tracker (`sink`).
    // Renders PII into simulated tracker payloads on purpose; the mitm capture path audits the result
    fn push_pii_params<'s>(&'s self, out: &mut Params<'s>, t: PiiType, sink: Option<&str>) {
        // Trackers known for hashed-email matching.
        const EMAIL_HASHERS: &[&str] = &["criteo", "demdex", "thebrighttag", "krxd"];
        let truth = self.truth;
        match t {
            PiiType::UniqueId => {
                out.extend(self.device_ids.iter().map(|(k, v)| (*k, v.as_str().into())));
            }
            PiiType::DeviceInfo => out.push(("device_model", truth.device_model.as_str().into())),
            PiiType::Location => match &self.gps {
                Some((lat, lon)) => {
                    out.push(("lat", lat.as_str().into()));
                    out.push(("lon", lon.as_str().into()));
                }
                None => out.push(("zip", truth.zip.as_str().into())),
            },
            PiiType::Email => {
                if sink.is_some_and(|s| EMAIL_HASHERS.contains(&s)) {
                    let lower = truth.email.to_ascii_lowercase();
                    out.push(("em", appvsweb_pii::hash::md5_hex(lower.as_bytes()).into()));
                } else {
                    out.push(("email", truth.email.as_str().into()));
                }
            }
            PiiType::Gender => out.push(("gender", truth.gender.as_str().into())),
            PiiType::Name => {
                out.push(("firstname", truth.first_name.as_str().into()));
                out.push(("lastname", truth.last_name.as_str().into()));
            }
            PiiType::Username => out.push(("username", truth.username.as_str().into())),
            PiiType::Password => out.push(("password", truth.password.as_str().into())),
            PiiType::PhoneNumber => out.push(("phone", truth.phone.as_str().into())),
            PiiType::Birthday => out.push(("dob", truth.birthday.as_str().into())),
        }
    }
}

/// Session-level constant: the test phones always have a GPS fix.
fn truth_has_gps() -> bool {
    true
}

/// The device identifiers as SDKs transmit them on `os`: Android IDs
/// as stored (the Wi-Fi MAC without separators), iOS IDs uppercased.
// lint:allow(T1) renders device IDs for simulated tracker payloads on purpose; the mitm capture path audits the result
fn device_id_params(truth: &GroundTruth, os: Os) -> Vec<(&'static str, String)> {
    use appvsweb_pii::encode::Encoding;
    truth
        .device_ids
        .iter()
        .filter_map(|(label, value)| {
            Some(match (os, label.as_str()) {
                (Os::Android, "ad_id") => ("gaid", value.clone()),
                (Os::Android, "android_id") => ("android_id", value.clone()),
                (Os::Android, "imei") => ("imei", value.clone()),
                (Os::Android, "mac") => ("wifi_mac", Encoding::StripSeparators.apply(value)),
                (Os::Ios, "ad_id") => ("idfa", value.to_ascii_uppercase()),
                (Os::Ios, "vendor_id") => ("idfv", value.to_ascii_uppercase()),
                _ => return None,
            })
        })
        .collect()
}

/// `params` as the `(key, value)` string pairs the encoders take.
fn pairs_of<'p>(params: &'p [(&'static str, Cow<'_, str>)]) -> Vec<(&'p str, &'p str)> {
    params.iter().map(|(k, v)| (*k, v.as_ref())).collect()
}

/// `{"k":"v",...}` over `pairs`, written into one string.
fn json_object(pairs: &[(&str, &str)]) -> String {
    let len = pairs
        .iter()
        .map(|(k, v)| k.len() + v.len() + 6)
        .sum::<usize>()
        + 1;
    let mut json = String::with_capacity(len);
    json.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        for part in ["\"", k, "\":\"", v, "\""] {
            json.push_str(part);
        }
    }
    json.push('}');
    json
}

/// Build a beacon request in the tracker's payload style (the caller
/// adds its `User-Agent`).
fn build_payload(scheme: Scheme, host: &str, style: PayloadStyle, params: &Params) -> Request {
    let pairs = pairs_of(params);
    match style {
        PayloadStyle::Query => {
            let url = Url::new(scheme, host, "/pixel").with_query(&pairs);
            Request::get(url)
        }
        PayloadStyle::Form => {
            let url = Url::new(scheme, host, "/track");
            Request::post(url, Body::form(&pairs))
        }
        PayloadStyle::Json => {
            let url = Url::new(scheme, host, "/collect");
            Request::post(url, Body::json(json_object(&pairs)))
        }
        PayloadStyle::Base64Json => {
            let url = Url::new(scheme, host, "/batch");
            let json = json_object(&pairs);
            Request::post(
                url,
                Body::form(&[("data", base64_encode(json.as_bytes()).as_str())]),
            )
        }
        PayloadStyle::GzipJson => {
            let url = Url::new(scheme, host, "/batch");
            let json = json_object(&pairs);
            let mut req = Request::post(
                url,
                Body::binary(gzip_compress(json.as_bytes()), "application/json"),
            );
            req.headers.set("Content-Encoding", "gzip");
            req
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use appvsweb_netsim::Device;

    fn testbed() -> (Meddle, OriginWorld, TrustStore) {
        let rng = SimRng::new(2016);
        let world = OriginWorld::new("PublicRoot", rng.fork("world"));
        let meddle = Meddle::new(world.public_trust());
        let mut device_trust = world.public_trust();
        device_trust.add_root(&meddle.ca().root);
        (meddle, world, device_trust)
    }

    fn truth_for(os: Os) -> GroundTruth {
        let mut rng = SimRng::new(2016);
        let device = Device::factory_reset(os, &mut rng);
        let ids: Vec<(&str, &str)> = device.ids.labelled();
        GroundTruth::synthetic(7).with_device(os.device_model(), &ids, device.gps)
    }

    fn run(id: &str, os: Os, medium: Medium) -> Trace {
        let catalog = Catalog::paper();
        let spec = catalog.get(id).unwrap();
        let (mut meddle, mut world, trust) = testbed();
        let runner = SessionRunner { spec, os, medium };
        runner.run(
            &mut meddle,
            &mut world,
            &trust,
            &truth_for(os),
            &SessionConfig::default(),
        )
    }

    #[test]
    fn app_session_produces_flows_and_transactions() {
        let trace = run("weather-channel", Os::Android, Medium::App);
        assert!(!trace.connections.is_empty());
        assert!(!trace.transactions.is_empty());
        // SDK beacons reached tracker hosts.
        assert!(trace.hosts().iter().any(|h| h.contains("flurry")));
        // All decrypted (no pinning in this service).
        assert!(trace.connections.iter().all(|c| c.decrypted));
    }

    #[test]
    fn web_session_contacts_many_more_aa_hosts() {
        let app = run("accuweather", Os::Android, Medium::App);
        let web = run("accuweather", Os::Android, Medium::Web);
        // The Accuweather headline case: few third parties in-app,
        // tens of A&A domains on the Web.
        assert!(web.hosts().len() > app.hosts().len() + 10);
        assert!(web.connections.len() > app.connections.len());
    }

    #[test]
    fn cache_keys_are_the_urls_fetched() {
        // `fetch_cached` keys the browser cache by the absolute URL it
        // formats before building the request; hosts are lowercase, so
        // the key is the request URL's text.
        let catalog = Catalog::paper();
        for spec in catalog
            .testable_on(Os::Android)
            .chain(catalog.testable_on(Os::Ios))
        {
            let www = format!("www.{}", spec.primary_domain());
            let hosts = spec
                .web
                .ad_networks
                .iter()
                .map(|id| trackers::by_id(id).primary_host());
            for host in hosts.chain([www.as_str()]) {
                let path = "/obj/0";
                let url = Url::new(Scheme::Https, host, path);
                assert_eq!(format!("https://{host}{path}"), url.to_string());
            }
        }
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = run("yelp", Os::Ios, Medium::Web);
        let b = run("yelp", Os::Ios, Medium::Web);
        assert_eq!(a.connections.len(), b.connections.len());
        assert_eq!(a.transactions.len(), b.transactions.len());
        let stats = |t: &Trace| t.connections.iter().map(|c| c.stats).collect::<Vec<_>>();
        assert_eq!(stats(&a), stats(&b));
    }

    #[test]
    fn background_traffic_is_stripped_by_default() {
        let trace = run("bbc-news", Os::Android, Medium::App);
        assert!(
            !trace
                .hosts()
                .iter()
                .any(|h| h.contains("google.com") || h.contains("googleapis")),
            "OS background hosts must be filtered"
        );
    }

    #[test]
    fn background_traffic_kept_when_unfiltered() {
        let catalog = Catalog::paper();
        let spec = catalog.get("bbc-news").unwrap();
        let (mut meddle, mut world, trust) = testbed();
        let runner = SessionRunner {
            spec,
            os: Os::Ios,
            medium: Medium::App,
        };
        let cfg = SessionConfig {
            strip_background: false,
            ..Default::default()
        };
        let trace = runner.run(&mut meddle, &mut world, &trust, &truth_for(Os::Ios), &cfg);
        assert!(trace.hosts().iter().any(|h| h.contains("apple.com")));
    }

    #[test]
    fn pinned_service_yields_opaque_first_party_traffic() {
        let trace = run("facebook-app", Os::Android, Medium::App);
        let fp: Vec<_> = trace
            .connections
            .iter()
            .filter(|c| c.host.contains("facebook.com"))
            .collect();
        assert!(!fp.is_empty());
        assert!(
            fp.iter().all(|c| !c.decrypted),
            "pinned traffic must stay opaque"
        );
        assert!(
            !trace
                .transactions
                .iter()
                .any(|t| t.host.contains("facebook.com")),
            "no plaintext visibility for pinned flows"
        );
    }

    #[test]
    fn grubhub_app_sends_password_to_taplytics() {
        let trace = run("grubhub", Os::Android, Medium::App);
        let taplytics: Vec<_> = trace
            .transactions
            .iter()
            .filter(|t| t.host.contains("taplytics"))
            .collect();
        assert!(!taplytics.is_empty());
        let texts: Vec<String> = taplytics
            .iter()
            .map(|t| String::from_utf8_lossy(&t.request_bytes()).into_owned())
            .collect();
        assert!(
            texts.iter().any(|txt| txt.contains("password=")),
            "the §4.2 Grubhub password leak must reproduce"
        );
    }

    #[test]
    fn rtb_chains_bounce_across_exchanges() {
        let trace = run("bbc-news", Os::Ios, Medium::Web);
        // Chains visit exchanges that are NOT in the page's ad tag list
        // directly (e.g. bounced-to hosts), and produce one-shot flows.
        let rtb_txns = trace
            .transactions
            .iter()
            .filter(|t| t.request.url.path == "/rtb")
            .count();
        assert!(rtb_txns > 50, "expected many RTB hops, got {rtb_txns}");
    }

    #[test]
    fn plaintext_api_produces_http_flows() {
        let trace = run("accuweather", Os::Android, Medium::App);
        assert!(
            trace
                .transactions
                .iter()
                .any(|t| t.plaintext && t.host.contains("accuweather")),
            "Accuweather's plaintext API calls must appear"
        );
    }

    #[test]
    fn android_web_withholds_ios_only_pii() {
        let android = run("ncaa-sports", Os::Android, Medium::Web);
        let ios = run("ncaa-sports", Os::Ios, Medium::Web);
        let truth_a = truth_for(Os::Android);
        let truth_i = truth_for(Os::Ios);
        let has_name = |trace: &Trace, truth: &GroundTruth| {
            trace
                .transactions
                .iter()
                .any(|t| String::from_utf8_lossy(&t.request_bytes()).contains(&truth.first_name))
        };
        assert!(!has_name(&android, &truth_a));
        assert!(has_name(&ios, &truth_i));
    }

    fn run_with_plan(id: &str, os: Os, medium: Medium, plan: FaultPlan) -> Trace {
        let catalog = Catalog::paper();
        let spec = catalog.get(id).unwrap();
        let (mut meddle, mut world, trust) = testbed();
        let runner = SessionRunner { spec, os, medium };
        let cfg = SessionConfig {
            faults: plan,
            ..Default::default()
        };
        runner.run(&mut meddle, &mut world, &trust, &truth_for(os), &cfg)
    }

    #[test]
    fn none_plan_session_records_no_faults_or_retries() {
        let trace = run_with_plan("yelp", Os::Android, Medium::App, FaultPlan::none());
        assert_eq!(trace.faults.total(), 0);
        assert_eq!(trace.retries, 0);
        // Byte-identical to the default-config path (same armed none-plan).
        let baseline = run("yelp", Os::Android, Medium::App);
        assert_eq!(trace, baseline);
    }

    #[test]
    fn moderate_chaos_session_completes_and_records_faults() {
        let trace = run_with_plan("bbc-news", Os::Ios, Medium::Web, FaultPlan::moderate());
        assert!(
            !trace.transactions.is_empty(),
            "a degraded session still captures traffic"
        );
        assert!(trace.faults.total() > 0, "5% fault rates must fire");
        assert!(trace.retries > 0, "the client must have retried something");
        // Every fault either got retried away, killed a recorded flow, or
        // damaged a recorded response — nothing silently vanished.
        assert!(
            trace.connections.iter().any(|c| c.error.is_some())
                || trace.transactions.iter().any(|t| t.partial),
            "injected faults must leave visible scars in the trace"
        );
    }

    #[test]
    fn chaos_sessions_are_deterministic() {
        let a = run_with_plan(
            "accuweather",
            Os::Android,
            Medium::Web,
            FaultPlan::moderate(),
        );
        let b = run_with_plan(
            "accuweather",
            Os::Android,
            Medium::Web,
            FaultPlan::moderate(),
        );
        assert_eq!(a, b, "same (seed, plan) must reproduce the exact trace");
    }

    #[test]
    fn ten_minute_session_scales_counts_not_types() {
        // The §3.2 duration control: longer sessions yield proportionally
        // more flows but (almost) no new PII types.
        let catalog = Catalog::paper();
        let spec = catalog.get("weather-channel").unwrap();
        let truth = truth_for(Os::Android);

        let mut traces = vec![];
        for mins in [4u64, 10] {
            let (mut meddle, mut world, trust) = testbed();
            let runner = SessionRunner {
                spec,
                os: Os::Android,
                medium: Medium::App,
            };
            let cfg = SessionConfig {
                duration: SimDuration::from_mins(mins),
                ..Default::default()
            };
            traces.push(runner.run(&mut meddle, &mut world, &trust, &truth, &cfg));
        }
        let short = traces[0].transactions.len() as f64;
        let long = traces[1].transactions.len() as f64;
        let ratio = long / short;
        assert!(
            (1.8..=3.2).contains(&ratio),
            "10-minute run should be roughly 2.5x a 4-minute run, got {ratio:.2}"
        );
    }
}
