//! The quiet-panic hook never loses a report. `with_quiet_panics`
//! sections open and close on many threads at once; after they all
//! closed, a panic still reaches the hook that was installed before
//! them, and inside one it reaches no hook. This binary holds one test
//! because it installs its own process-wide hook.

use appvsweb_testkit::fixtures::with_quiet_panics;
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Probe panics the recording hook saw.
static PROBES: AtomicUsize = AtomicUsize::new(0);

fn probe() {
    let _ = catch_unwind(|| std::panic::panic_any("probe"));
}

#[test]
fn concurrent_quiet_sections_keep_the_earlier_hook() {
    std::panic::set_hook(Box::new(|info| {
        if info.payload().downcast_ref::<&str>() == Some(&"probe") {
            PROBES.fetch_add(1, Ordering::SeqCst);
        } else {
            eprintln!("{info}");
        }
    }));
    for round in 0..200 {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| (0..200).for_each(|_| with_quiet_panics(|| ())));
            }
        });
        let before = PROBES.load(Ordering::SeqCst);
        probe();
        assert_eq!(
            PROBES.load(Ordering::SeqCst),
            before + 1,
            "round {round}: the probe never reached the recording hook"
        );
    }
    let before = PROBES.load(Ordering::SeqCst);
    with_quiet_panics(probe);
    assert_eq!(
        PROBES.load(Ordering::SeqCst),
        before,
        "a quiet probe was reported"
    );
}
