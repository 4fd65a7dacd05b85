//! In-process edge coverage for the fuzzing engine.
//!
//! Parser crates mark interesting control-flow points with [`cover!`];
//! each call site hashes its `file!()`/`line!()`/`column!()` into a slot
//! of a fixed-size counter map at *compile time*, so the runtime cost
//! of a hit is one thread-local load (the enable check) plus, while a
//! fuzzer is driving, one swap and one add. AFL-style edge mixing — the
//! slot actually bumped is `hash(previous site) ^ hash(current site)` —
//! makes the map sensitive to *paths*, not just to which lines ran.
//!
//! Coverage is **off by default**: outside a fuzz run the macro costs a
//! single thread-local load and no writes. The fuzz engine in
//! `appvsweb-testkit` flips it on around each deterministic exec,
//! snapshots the hit counts, and diffs them against its seen-set.
//!
//! The map, its enable flag, and the edge-mixing state are per thread:
//! a fuzz exec records only what runs on the thread that enabled it, so
//! instrumented code running concurrently on other threads (parallel
//! tests, a study's workers) can never leak hits into it. The same
//! input through the same instrumented code therefore touches the same
//! slots the same number of times.

use std::cell::{Cell, RefCell};

/// Number of slots in the edge map. Collisions merely merge edges
/// (coverage becomes slightly coarser), so a few thousand slots
/// comfortably hold the workspace's few hundred instrumented sites.
pub const MAP_SIZE: usize = 1 << 12;

/// Mask applied to site hashes; `MAP_SIZE` is a power of two.
const MASK: usize = MAP_SIZE - 1;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static PREV: Cell<usize> = const { Cell::new(0) };
    /// Allocated by the first [`reset`] on a thread; empty until then.
    static HITS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turn this thread's map on. Call [`reset`] first for a clean slate.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Turn this thread's map off; [`cover!`] reverts to a single load per
/// hit.
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Whether hits on this thread are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Zero every counter and the edge-mixing state of this thread's map.
pub fn reset() {
    PREV.with(|p| p.set(0));
    HITS.with_borrow_mut(|hits| {
        hits.clear();
        hits.resize(MAP_SIZE, 0);
    });
}

/// Record a hit at the compile-time site hash `site`. Prefer the
/// [`cover!`] macro, which computes the hash as a constant.
#[inline]
pub fn hit(site: usize) {
    if !ENABLED.with(Cell::get) {
        return;
    }
    // AFL edge mixing: bump hash(prev → current), then shift the current
    // site right so A→B and B→A land in different slots.
    let prev = PREV.with(|p| p.replace(site >> 1));
    let slot = (site ^ prev) & MASK;
    // `try_with`: a hit from code running in a thread-local destructor
    // after the map is gone is dropped, not a panic.
    let _ = HITS.try_with(|hits| {
        if let Some(counter) = hits.borrow_mut().get_mut(slot) {
            *counter = counter.wrapping_add(1);
        }
    });
}

/// Append every `(slot, count)` of this thread's map with a nonzero
/// counter to `out`.
pub fn nonzero_into(out: &mut Vec<(u16, u32)>) {
    HITS.with_borrow(|hits| {
        for (slot, &count) in hits.iter().enumerate() {
            if count > 0 {
                out.push((slot as u16, count));
            }
        }
    });
}

/// FNV-1a over the call site's file, line, and column. `const`, so
/// [`cover!`] folds the whole computation into an integer literal.
pub const fn site(file: &str, line: u32, column: u32) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = file.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h = (h ^ line as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h = (h ^ column as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h as usize
}

/// Mark a control-flow point for edge coverage.
///
/// Expands to a constant site hash and a call to [`hit`]; with coverage
/// disabled the cost is one thread-local load. Place one at each arm
/// of a parser's interesting decisions (token classes, error paths,
/// block types) — not inside per-byte loops.
#[macro_export]
macro_rules! cover {
    () => {{
        const SITE: usize = $crate::site(file!(), line!(), column!());
        $crate::hit(SITE);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_map_records_nothing() {
        disable();
        reset();
        cover!();
        let mut hits = Vec::new();
        nonzero_into(&mut hits);
        assert!(hits.is_empty());
    }

    #[test]
    fn enabled_map_counts_hits_deterministically() {
        // The sites must be the same macro invocations both times —
        // cover!() hashes file/line/column, so a copy-pasted loop would
        // record different (equally valid) slots.
        fn run_once() {
            reset();
            enable();
            for _ in 0..3 {
                cover!();
                cover!();
            }
            disable();
        }
        run_once();
        let mut first = Vec::new();
        nonzero_into(&mut first);
        assert!(!first.is_empty());
        assert_eq!(first.iter().map(|&(_, c)| c).sum::<u32>(), 6);

        // Same run again → identical snapshot.
        run_once();
        let mut second = Vec::new();
        nonzero_into(&mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_sites_hash_distinctly() {
        let a = site("a.rs", 1, 1);
        let b = site("a.rs", 1, 2);
        let c = site("b.rs", 1, 1);
        assert_ne!(a & MASK, b & MASK);
        assert_ne!(a & MASK, c & MASK);
    }

    #[test]
    fn edge_mixing_distinguishes_order() {
        reset();
        enable();
        hit(10);
        hit(20);
        disable();
        let mut ab = Vec::new();
        nonzero_into(&mut ab);

        reset();
        enable();
        hit(20);
        hit(10);
        disable();
        let mut ba = Vec::new();
        nonzero_into(&mut ba);
        assert_ne!(ab, ba, "A→B and B→A must land in different slots");
    }

    #[test]
    fn hits_on_other_threads_never_reach_this_map() {
        reset();
        enable();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Another thread's map is disabled and separate.
                assert!(!enabled());
                hit(30);
                enable();
                hit(40);
            });
        });
        hit(10);
        disable();
        let mut seen = Vec::new();
        nonzero_into(&mut seen);
        assert_eq!(seen.iter().map(|&(_, c)| c).sum::<u32>(), 1);
    }
}
