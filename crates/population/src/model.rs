//! Deterministic per-user models.
//!
//! A population campaign does not re-run the network simulator per
//! user — it samples *who the users are and how they use services*,
//! then scales the measured per-cell results (crowdsourcing style, as
//! ReCon and PrivacyProxy aggregate real users' traffic). Everything a
//! user is comes from SimRng streams forked under
//! `rng_labels::population_user(user_id, cell)`, so:
//!
//! * a user's model is a pure function of `(population seed, user_id)`,
//! * shard boundaries and worker counts can never re-key a user, and
//! * adding services to the catalogue perturbs only the users who
//!   adopt them (per-service usage draws live in per-service streams).

use appvsweb_netsim::{rng_labels, Os, SimRng};
use appvsweb_pii::GroundTruth;

/// The rank-ordered service universes users pick from, one per OS
/// (built by the campaign from the base study's completed cells, so a
/// failed cell under chaos testing simply drops out of adoption).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Universe {
    /// Android service ids, best rank first.
    pub android: Vec<String>,
    /// iOS service ids, best rank first.
    pub ios: Vec<String>,
}

impl Universe {
    /// The universe for one OS.
    pub fn on(&self, os: Os) -> &[String] {
        match os {
            Os::Android => &self.android,
            Os::Ios => &self.ios,
        }
    }
}

/// How one user exercises one service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceUse {
    /// The service adopted.
    pub service_id: String,
    /// Sessions via the native app (0 = doesn't use the app).
    pub app_sessions: u32,
    /// Sessions via the mobile web site (0 = doesn't use the web).
    pub web_sessions: u32,
}

/// One simulated user: identity profile, platform, installed-service
/// mix, usage habits, and device churn.
#[derive(Clone, Debug, PartialEq)]
pub struct UserModel {
    /// Stable user id (the RNG label key).
    pub user_id: u64,
    /// The user's platform.
    pub os: Os,
    /// Seed of the user's synthetic PII profile; [`UserModel::profile`]
    /// builds the profile from it on demand (a campaign never reads it).
    pub profile_seed: u64,
    /// Devices owned over the observation window (≥ 1); each
    /// generation re-exposes a fresh set of hardware identifiers, so
    /// churn multiplies UniqueId leak instances.
    pub device_generations: u32,
    /// Probability this user reaches a service via its web site.
    pub web_affinity: f64,
    /// Adopted services with per-medium session counts, in
    /// universe (rank) order.
    pub services: Vec<ServiceUse>,
}

/// Calibration constants for the user sampler. Centralized so the
/// population model is reviewable in one place.
mod calib {
    /// P(Android); the remainder is iOS.
    pub const P_ANDROID: f64 = 0.55;
    /// Minimum / spread of per-user web affinity.
    pub const WEB_AFFINITY_BASE: f64 = 0.20;
    /// Spread added on top of the base, scaled by a unit draw.
    pub const WEB_AFFINITY_SPREAD: f64 = 0.60;
    /// Maximum services a user adopts (uniform 1..=MAX before bias).
    pub const MAX_SERVICES: u64 = 7;
    /// Maximum device generations (1..=MAX).
    pub const MAX_DEVICE_GENERATIONS: u64 = 3;
    /// P(user opens a service's app at all).
    pub const P_USES_APP: f64 = 0.75;
    /// Maximum extra sessions per medium beyond the first.
    pub const MAX_EXTRA_SESSIONS: u64 = 3;
}

/// Quadratically rank-biased index into a universe of `n` services:
/// popular (low-index) services are adopted far more often, like an
/// App Annie rank curve.
fn biased_index(rng: &mut SimRng, n: u64) -> u64 {
    let a = rng.below(n);
    let b = rng.below(n);
    a.min(b)
}

impl UserModel {
    /// Sample user `user_id` of the campaign seeded by `seed`.
    ///
    /// Deterministic in `(seed, user_id, universe)`; independent of
    /// every other user.
    pub fn generate(seed: u64, user_id: u64, universe: &Universe) -> UserModel {
        let mut profile_rng =
            SimRng::new(seed).fork(&rng_labels::population_user(user_id, "profile"));
        let os = if profile_rng.chance(calib::P_ANDROID) {
            Os::Android
        } else {
            Os::Ios
        };
        let profile_seed = profile_rng.next_u64();
        let device_generations = 1 + profile_rng.below(calib::MAX_DEVICE_GENERATIONS) as u32;
        let web_affinity =
            calib::WEB_AFFINITY_BASE + calib::WEB_AFFINITY_SPREAD * profile_rng.unit();

        let pool = universe.on(os);
        let mut services = Vec::new();
        if !pool.is_empty() {
            let want = (1 + profile_rng.below(calib::MAX_SERVICES)) as usize;
            // Rank-biased sampling without replacement, bounded
            // attempts so the draw count stays small and deterministic.
            let mut picked: Vec<usize> = Vec::with_capacity(want);
            for _ in 0..want * 3 {
                if picked.len() >= want {
                    break;
                }
                let idx = biased_index(&mut profile_rng, pool.len() as u64) as usize;
                if !picked.contains(&idx) {
                    picked.push(idx);
                }
            }
            picked.sort_unstable();
            for idx in picked {
                let Some(service_id) = pool.get(idx) else {
                    continue;
                };
                services.push(Self::usage(seed, user_id, service_id, web_affinity));
            }
        }

        UserModel {
            user_id,
            os,
            profile_seed,
            device_generations,
            web_affinity,
            services,
        }
    }

    /// The user's synthetic PII profile (account identity).
    pub fn profile(&self) -> GroundTruth {
        GroundTruth::synthetic(self.profile_seed)
    }

    /// Sample how this user exercises one service, from the user's
    /// per-service stream (the `(user_id, cell)` fork of the issue
    /// spec: one stream per user per service cell).
    fn usage(seed: u64, user_id: u64, service_id: &str, web_affinity: f64) -> ServiceUse {
        // lint:allow(D3) parameterized label: the "profile" cell and per-service cells are disjoint label sets
        let mut rng = SimRng::new(seed).fork(&rng_labels::population_user(user_id, service_id));
        let mut uses_app = rng.chance(calib::P_USES_APP);
        let uses_web = rng.chance(web_affinity);
        if !uses_app && !uses_web {
            // Adopting a service means using it somehow; default to the
            // app, the paper's mobile-first assumption.
            uses_app = true;
        }
        let sessions = |rng: &mut SimRng, active: bool| {
            if active {
                1 + rng.below(1 + calib::MAX_EXTRA_SESSIONS) as u32
            } else {
                0
            }
        };
        let app_sessions = sessions(&mut rng, uses_app);
        let web_sessions = sessions(&mut rng, uses_web);
        ServiceUse {
            service_id: service_id.to_string(),
            app_sessions,
            web_sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            android: (0..20).map(|i| format!("svc-{i:02}")).collect(),
            ios: (0..20).map(|i| format!("svc-{i:02}")).collect(),
        }
    }

    #[test]
    fn generation_is_deterministic_and_per_user_independent() {
        let u = universe();
        let a = UserModel::generate(2016, 42, &u);
        let b = UserModel::generate(2016, 42, &u);
        assert_eq!(a, b);
        let c = UserModel::generate(2016, 43, &u);
        assert_ne!(
            (a.os, a.profile().email, a.services.clone()),
            (c.os, c.profile().email, c.services.clone()),
            "neighbouring users draw from independent streams"
        );
        // Different campaign seed re-keys everyone.
        let d = UserModel::generate(2017, 42, &u);
        assert_ne!(a.profile().email, d.profile().email);
    }

    /// The lazy profile is the eager one, and deferring it leaves the
    /// rest of the draw where it was: the profile is
    /// `GroundTruth::synthetic` of the profile stream's draw right after
    /// the OS coin, and
    /// os, churn, affinity and services equal the values the eager
    /// sampler produced for these `(seed, user)` pairs.
    #[test]
    fn lazy_profile_matches_the_eager_draw() {
        let u = universe();
        type Pin = (u64, u64, Os, u32, u64, &'static [(&'static str, u32, u32)]);
        let pins: [Pin; 3] = [
            (
                2016,
                0,
                Os::Android,
                2,
                0x3fe4c0718c3ac164,
                &[
                    ("svc-00", 4, 0),
                    ("svc-01", 4, 0),
                    ("svc-03", 2, 3),
                    ("svc-04", 0, 2),
                    ("svc-06", 2, 0),
                    ("svc-12", 3, 2),
                    ("svc-13", 2, 4),
                ],
            ),
            (
                2016,
                8,
                Os::Ios,
                2,
                0x3fe61fea9863ee8a,
                &[("svc-08", 0, 1), ("svc-09", 2, 0)],
            ),
            (
                7,
                42,
                Os::Android,
                1,
                0x3fd7f427c02edc4a,
                &[("svc-03", 3, 0), ("svc-05", 2, 0), ("svc-09", 4, 0)],
            ),
        ];
        for (seed, user, os, generations, affinity, services) in pins {
            let m = UserModel::generate(seed, user, &u);
            let mut eager = SimRng::new(seed).fork(&rng_labels::population_user(user, "profile"));
            eager.chance(calib::P_ANDROID);
            assert_eq!(m.profile(), GroundTruth::synthetic(eager.next_u64()));
            assert_eq!(m.os, os);
            assert_eq!(m.device_generations, generations);
            assert_eq!(m.web_affinity.to_bits(), affinity);
            let got: Vec<(&str, u32, u32)> = m
                .services
                .iter()
                .map(|s| (s.service_id.as_str(), s.app_sessions, s.web_sessions))
                .collect();
            assert_eq!(got, services, "seed {seed} user {user}");
        }
        assert_eq!(
            UserModel::generate(2016, 0, &u).profile().email,
            "amber.falcon.9598@testmail.example"
        );
    }

    #[test]
    fn models_are_well_formed() {
        let u = universe();
        let mut oses = std::collections::BTreeSet::new();
        for uid in 0..200 {
            let m = UserModel::generate(7, uid, &u);
            oses.insert(m.os);
            assert!((1..=3).contains(&m.device_generations));
            assert!(!m.services.is_empty(), "every user adopts something");
            assert!(m.services.len() <= 7);
            let mut seen = std::collections::BTreeSet::new();
            for s in &m.services {
                assert!(seen.insert(s.service_id.clone()), "no duplicate adoption");
                assert!(
                    s.app_sessions > 0 || s.web_sessions > 0,
                    "adopted services are used"
                );
                assert!(s.app_sessions <= 4 && s.web_sessions <= 4);
            }
            assert!(!m.services.is_empty());
            assert!(!m.profile().email.is_empty());
        }
        assert_eq!(oses.len(), 2, "both platforms appear in 200 users");
    }

    #[test]
    fn rank_bias_prefers_popular_services() {
        let u = universe();
        let mut head = 0usize;
        let mut tail = 0usize;
        for uid in 0..500 {
            for s in UserModel::generate(11, uid, &u).services {
                // Universe ids encode their rank index.
                let idx: usize = s.service_id[4..].parse().unwrap();
                if idx < 5 {
                    head += 1;
                } else if idx >= 15 {
                    tail += 1;
                }
            }
        }
        assert!(
            head > tail * 2,
            "top-5 services should dominate bottom-5 adoption: head={head} tail={tail}"
        );
    }

    #[test]
    fn empty_universe_yields_no_services() {
        let m = UserModel::generate(1, 1, &Universe::default());
        assert!(m.services.is_empty());
    }
}
