//! Shared fixtures for the workspace's integration tests and benches.
//!
//! Before this module existed, every `tests/*.rs` binary carried its own
//! copy of the same three helpers: a `OnceLock`'d canonical study, a
//! "quick" 1-minute study config, and a panic-hook silencer. They now
//! live here once, so a calibration change (e.g. the canonical seed or
//! session length) is a one-line edit instead of a five-file sweep.

use crate::gen::{self, Gen};
use appvsweb_analysis::Study;
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::{FaultPlan, SimDuration, SimRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};

/// The canonical full study (seed 2016, 4 simulated minutes, ReCon on),
/// computed once per process and shared by every consumer — table and
/// figure tests and golden snapshots all read the same run.
pub fn canonical_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| run_study(&StudyConfig::default()))
}

/// A fast study configuration (1-minute sessions, ReCon off) for tests
/// that exercise the pipeline rather than consume its calibrated output.
pub fn quick_study_config() -> StudyConfig {
    StudyConfig {
        duration: SimDuration::from_mins(1),
        use_recon: false,
        ..StudyConfig::default()
    }
}

/// [`quick_study_config`] with a fault plan, for chaos suites.
pub fn quick_study_config_with(faults: FaultPlan) -> StudyConfig {
    StudyConfig {
        faults,
        ..quick_study_config()
    }
}

/// How many [`with_quiet_panics`] sections are open, on any thread.
static QUIET_SECTIONS: AtomicUsize = AtomicUsize::new(0);

/// Closes a quiet section when dropped, on return or unwind alike.
struct QuietSection;

impl Drop for QuietSection {
    fn drop(&mut self) {
        QUIET_SECTIONS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run the closure with panic reports silenced. Tests that crash cells
/// (or fuzz crashing targets) on purpose use this so backtraces stay
/// out of the test log.
///
/// The panic hook is process-wide, so it is replaced once per process:
/// the first call wraps whatever hook was installed before it in one
/// that stays silent while any quiet section is open, on any thread
/// (a study's panicking cells run on its worker threads), and
/// otherwise hands the panic to that earlier hook. Sections on
/// concurrent threads therefore never swap the hook under each other.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let earlier = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_SECTIONS.load(Ordering::SeqCst) == 0 {
                earlier(info);
            }
        }));
    });
    QUIET_SECTIONS.fetch_add(1, Ordering::SeqCst);
    let _section = QuietSection;
    f()
}

/// Generator of `label(.label)+` hostnames like `tracker.example.com`.
pub fn hosts() -> impl Gen<Value = String> {
    gen::from_fn(|rng: &mut SimRng| {
        let labels = rng.range(2, 3);
        let mut host = String::new();
        for i in 0..labels {
            if i > 0 {
                host.push('.');
            }
            let len = if i + 1 == labels {
                rng.range(2, 5)
            } else {
                rng.range(1, 10)
            };
            for _ in 0..len {
                host.push(rng.range(b'a' as u64, b'z' as u64) as u8 as char);
            }
        }
        host
    })
}

/// Generator of `/seg/seg` URL paths with 0..=3 lowercase alphanumeric
/// segments.
pub fn paths() -> impl Gen<Value = String> {
    gen::from_fn(|rng: &mut SimRng| {
        let segs = rng.below(4);
        let mut path = String::new();
        for _ in 0..segs {
            path.push('/');
            for _ in 0..rng.range(1, 8) {
                let c = b"abcdefghijklmnopqrstuvwxyz0123456789"[rng.below(36) as usize];
                path.push(c as char);
            }
        }
        path
    })
}

fn prob(rng: &mut SimRng, scale: f64) -> f64 {
    (rng.below(1_001) as f64) / 1_000.0 * scale
}

/// Generator of arbitrary network/origin fault plans: every rate in
/// `[0, 0.25]`, sane spike/flap windows, `cell_panic` held at 0 (panic
/// isolation is a study-runner property with its own tests).
pub fn fault_plans() -> impl Gen<Value = FaultPlan> {
    gen::from_fn(|rng: &mut SimRng| FaultPlan {
        packet_loss: prob(rng, 0.25),
        latency_spike: prob(rng, 0.25),
        latency_spike_ms: rng.below(5_000),
        connection_reset: prob(rng, 0.25),
        link_flap: prob(rng, 0.1),
        link_flap_ms: rng.below(10_000),
        dns_servfail: prob(rng, 0.25),
        dns_timeout: prob(rng, 0.25),
        tls_abort: prob(rng, 0.25),
        truncated_body: prob(rng, 0.25),
        malformed_chunked: prob(rng, 0.25),
        server_error: prob(rng, 0.25),
        cell_panic: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_quick() {
        let cfg = quick_study_config();
        assert_eq!(cfg.duration, SimDuration::from_mins(1));
        assert!(!cfg.use_recon);
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = SimRng::new(11).fork("fixtures-gens");
        let mut b = SimRng::new(11).fork("fixtures-gens");
        let h = hosts();
        let p = paths();
        let f = fault_plans();
        for _ in 0..20 {
            assert_eq!(h.generate(&mut a), h.generate(&mut b));
            assert_eq!(p.generate(&mut a), p.generate(&mut b));
            assert_eq!(
                f.generate(&mut a).packet_loss,
                f.generate(&mut b).packet_loss
            );
        }
    }

    #[test]
    fn hosts_look_like_hostnames() {
        let mut rng = SimRng::new(3).fork("fixtures-hosts");
        let g = hosts();
        for _ in 0..50 {
            let host = g.generate(&mut rng);
            assert!(host.contains('.'), "host {host:?} has no dot");
            assert!(host.chars().all(|c| c.is_ascii_lowercase() || c == '.'));
        }
    }
}
