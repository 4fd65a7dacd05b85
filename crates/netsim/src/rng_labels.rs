//! The workspace's canonical [`SimRng`] fork-label table.
//!
//! Every subsystem forks its RNG stream under a label, and the labels
//! decide which draws land in which stream — a collision means two
//! subsystems silently share entropy, and an ad-hoc `format!` label
//! means the set of streams can't be reviewed in one place. This module
//! is that one place: static labels are `&str` constants, and the few
//! genuinely dynamic labels (one stream per study cell or per device)
//! are built by functions here from a constant prefix plus inputs that
//! are themselves deterministic (service ids, OS, attempt counters).
//!
//! `appvsweb-lint` rule D3 enforces the closure: a `.fork(...)` call
//! site must pass either a string literal or a value built from this
//! module, and the lint's emitted label table is asserted against
//! [`STATIC`] by a unit test, so adding a label without registering it
//! here fails CI.
//!
//! [`SimRng`]: crate::SimRng

use std::fmt::{Debug, Display};

/// Per-world chaos dice ([`FaultInjector`](crate::FaultInjector) owned
/// by the origin world).
pub const WORLD_CHAOS: &str = "world-chaos";
/// The origin-world content/behaviour stream.
pub const WORLD: &str = "world";
/// Session retry backoff jitter.
pub const RETRY: &str = "retry";
/// The Meddle proxy's chaos dice.
pub const MEDDLE_CHAOS: &str = "meddle-chaos";
/// Device construction (identifiers, GPS fix).
pub const DEVICE: &str = "device";
/// The device's GPS fix jitter.
pub const GPS: &str = "gps";

/// Prefix of per-cell session streams; see [`session`].
pub const SESSION_PREFIX: &str = "session";
/// Prefix of per-cell injected-panic dice; see [`cell_panic`].
pub const CELL_PANIC_PREFIX: &str = "cell-panic";
/// Prefix of per-OS device-identifier streams; see [`device_ids`].
pub const DEVICE_IDS_PREFIX: &str = "device-ids";
/// Prefix of per-target fuzzing-engine mutation streams; see
/// [`fuzz_target`].
pub const FUZZ_PREFIX: &str = "fuzz";
/// Prefix of per-user population-campaign streams; see
/// [`population_user`].
pub const POPULATION_PREFIX: &str = "population";
/// Prefix of per-job serve-mode retry-jitter streams; see
/// [`serve_retry`].
pub const SERVE_RETRY_PREFIX: &str = "serve-retry";

/// Every static label, for exhaustiveness checks. Keep sorted.
pub const STATIC: &[&str] = &[DEVICE, GPS, MEDDLE_CHAOS, RETRY, WORLD, WORLD_CHAOS];

/// Every dynamic-label prefix, for exhaustiveness checks. Keep sorted.
pub const DYNAMIC_PREFIXES: &[&str] = &[
    CELL_PANIC_PREFIX,
    DEVICE_IDS_PREFIX,
    FUZZ_PREFIX,
    POPULATION_PREFIX,
    SERVE_RETRY_PREFIX,
    SESSION_PREFIX,
];

/// The per-cell session stream: one independent stream per
/// (service, OS, medium) study cell.
pub fn session(service_id: &str, os: impl Debug, medium: impl Debug) -> String {
    format!("{SESSION_PREFIX}:{service_id}:{os:?}:{medium:?}")
}

/// The per-cell, per-attempt injected-panic dice used by the study
/// runner's fault plan.
pub fn cell_panic(service_id: &str, os: impl Debug, medium: impl Debug, attempt: u32) -> String {
    format!("{CELL_PANIC_PREFIX}:{service_id}:{os:?}:{medium:?}:{attempt}")
}

/// The per-OS device-identifier stream (IMEI, MAC, IDFA, …).
pub fn device_ids(os: impl Display) -> String {
    format!("{DEVICE_IDS_PREFIX}:{os}")
}

/// The per-(user, cell) stream of a population campaign: every
/// simulated user draws their profile and usage habits from their own
/// streams, keyed by a stable user id plus a cell string (`"profile"`
/// for the profile draw, `"svc/Os/Medium"` for per-cell usage), so
/// shard boundaries and worker counts can never re-key a user.
pub fn population_user(user_id: u64, cell: &str) -> String {
    format!("{POPULATION_PREFIX}:{user_id}:{cell}")
}

/// The per-job retry-jitter stream of the resident service's
/// supervisor: each submitted job draws its cell-retry backoff jitter
/// from its own stream keyed by the stable job id, so queue order and
/// worker count can never re-key another job's backoff schedule.
pub fn serve_retry(job_id: u64) -> String {
    format!("{SERVE_RETRY_PREFIX}:{job_id}")
}

/// The per-target mutation-scheduling stream of the fuzzing engine:
/// one independent stream per registered fuzz target, so adding a
/// target never re-keys another target's schedule.
pub fn fuzz_target(name: &str) -> String {
    format!("{FUZZ_PREFIX}:{name}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_is_sorted_and_unique() {
        for pair in STATIC.windows(2) {
            assert!(pair[0] < pair[1], "STATIC must stay sorted: {pair:?}");
        }
        for pair in DYNAMIC_PREFIXES.windows(2) {
            assert!(
                pair[0] < pair[1],
                "DYNAMIC_PREFIXES must stay sorted: {pair:?}"
            );
        }
    }

    #[test]
    fn dynamic_labels_reproduce_the_historical_format() {
        // These exact strings seeded the golden study outputs; changing
        // them re-keys every stream and breaks byte-determinism.
        #[derive(Debug)]
        struct Android;
        #[derive(Debug)]
        struct App;
        assert_eq!(session("svc", Android, App), "session:svc:Android:App");
        assert_eq!(
            cell_panic("svc", Android, App, 2),
            "cell-panic:svc:Android:App:2"
        );
        assert_eq!(device_ids("iOS"), "device-ids:iOS");
        assert_eq!(
            population_user(7, "svc/Android/App"),
            "population:7:svc/Android/App"
        );
        assert_eq!(population_user(0, "profile"), "population:0:profile");
        assert_eq!(serve_retry(3), "serve-retry:3");
    }

    #[test]
    fn no_dynamic_prefix_collides_with_a_static_label() {
        for prefix in DYNAMIC_PREFIXES {
            assert!(
                !STATIC.contains(prefix),
                "prefix {prefix} shadows a static label"
            );
        }
    }
}
