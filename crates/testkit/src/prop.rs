//! The property-test runner: fixed-seed case generation and greedy
//! shrinking.

use crate::fixtures::with_quiet_panics;
use crate::gen::Gen;
use appvsweb_netsim::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Harness parameters. The defaults make every run identical; CI or a
/// local soak can raise the case count with `TESTKIT_CASES`.
#[derive(Clone, Copy, Debug)]
pub struct PropConfig {
    /// Harness seed; per-test streams are forked from it by test name.
    pub seed: u64,
    /// Cases per property.
    pub cases: u32,
    /// Cap on shrinking steps (each step re-runs the property).
    pub max_shrink_steps: u32,
}

impl Default for PropConfig {
    fn default() -> Self {
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        PropConfig {
            seed: 2016,
            cases,
            max_shrink_steps: 512,
        }
    }
}

/// Run a property over `cfg.cases` generated inputs; on failure, shrink
/// greedily and panic with the minimal counterexample.
///
/// The property may signal failure by panicking (any `assert!`) — the
/// harness catches the unwind, shrinks with the panic hook silenced, and
/// re-raises a summary panic naming the test, the case number, the seed,
/// and the minimal failing input.
pub fn check<G, F>(name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value),
{
    check_with(&PropConfig::default(), name, gen, prop)
}

/// [`check`] with explicit configuration.
pub fn check_with<G, F>(cfg: &PropConfig, name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value),
{
    // lint:allow(D3) the label is the caller's static property name, passed through verbatim
    let mut rng = SimRng::new(cfg.seed).fork(name);
    for case in 0..cfg.cases {
        let value = gen.generate(&mut rng);
        if let Err(message) = run_one(&prop, &value) {
            let (minimal, steps) = shrink(cfg, gen, &prop, value);
            let final_message = run_one(&prop, &minimal).err().unwrap_or(message);
            // lint:allow(R1) a test harness reports failure by panicking
            panic!(
                "property {name} failed (case {case}/{cases}, seed {seed}, {steps} shrink \
                 steps)\nminimal input: {minimal:?}\nfailure: {final_message}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// Run the property once, converting a panic into `Err(message)`.
pub(crate) fn run_one<V, F: Fn(&V)>(prop: &F, value: &V) -> Result<(), String> {
    // Silence the hook's backtrace spam while probing.
    let result = with_quiet_panics(|| catch_unwind(AssertUnwindSafe(|| prop(value))));
    match result {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(payload)),
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Greedy shrink: repeatedly take the first candidate that still fails.
/// Shared with the fuzzing engine, which minimizes crash inputs through
/// the same ladder.
pub(crate) fn shrink<G, F>(
    cfg: &PropConfig,
    gen: &G,
    prop: &F,
    mut current: G::Value,
) -> (G::Value, u32)
where
    G: Gen,
    F: Fn(&G::Value),
{
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in gen.shrink(&current) {
            steps += 1;
            if run_one(prop, &candidate).is_err() {
                current = candidate;
                continue 'outer;
            }
            if steps >= cfg.max_shrink_steps {
                break;
            }
        }
        break;
    }
    (current, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0;
        // Count via a Cell-free trick: the closure may not capture &mut,
        // so count with an atomic.
        let counter = std::sync::atomic::AtomicU32::new(0);
        check("passing_property", &(gen::u64s(0..=100),), |&(v,)| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert!(v <= 100);
        });
        seen += counter.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(seen, PropConfig::default().cases);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut rng_a = SimRng::new(2016).fork("some_test");
        let mut rng_b = SimRng::new(2016).fork("some_test");
        let g = gen::printable_strings(0..=32);
        for _ in 0..20 {
            assert_eq!(g.generate(&mut rng_a), g.generate(&mut rng_b));
        }
    }

    #[test]
    fn failing_property_shrinks_to_minimal_counterexample() {
        let result = std::panic::catch_unwind(|| {
            check_with(
                &PropConfig {
                    seed: 2016,
                    cases: 64,
                    max_shrink_steps: 512,
                },
                "must_shrink",
                &(gen::u64s(0..=10_000),),
                |&(v,)| assert!(v < 500, "too big: {v}"),
            );
        });
        let msg = panic_message(result.unwrap_err());
        // Greedy shrinking must land exactly on the boundary value.
        assert!(
            msg.contains("minimal input: (500,)"),
            "unexpected report: {msg}"
        );
    }

    #[test]
    fn vec_shrinking_reduces_length() {
        let result = std::panic::catch_unwind(|| {
            check("vec_shrink", &(gen::bytes(0..=64),), |(v,)| {
                assert!(v.len() < 4, "len {}", v.len())
            });
        });
        let msg = panic_message(result.unwrap_err());
        // A minimal failing vector has exactly 4 elements.
        let shrunk: Vec<u8> = vec![0; 4];
        assert!(
            msg.contains(&format!("{shrunk:?}")) || msg.contains("len 4"),
            "unexpected report: {msg}"
        );
    }
}
