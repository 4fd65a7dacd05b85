//! Allocation budget of session synthesis.
//!
//! Capture (netsim → tlssim → httpsim → mitm, driven by the services
//! session runner) is the largest layer of a campaign, and what it has
//! left to spend is small allocations. This suite installs a counting
//! global allocator whose counters are thread-local, runs a fixed
//! seed-2016 subset of the paper grid on one thread, and checks the
//! allocations per captured transaction against a pinned budget.
//!
//! A single thread running a pure function of the seed allocates the
//! same number of times on every run, so the gate cannot flake: the
//! suite also asserts that two runs count identically.

use appvsweb::core::study::{campaign_cells, CellSelection, PAPER_SEED};
use appvsweb::core::Testbed;
use appvsweb::services::{Catalog, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per transaction the subset may spend: it measured 25.34
/// (485,122 over 19,141 transactions) when this gate was introduced,
/// down from 70.37. A later change may lower this budget but never
/// raise it: synthesis that allocates more has regressed.
const BUDGET_PER_TRANSACTION: f64 = 25.4;

/// The subset: every third cell of the paper grid (66 of 196). The grid
/// alternates media, so an odd stride keeps both media on both phones.
const STRIDE: u32 = 3;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a bump of a const-initialized thread-local `Cell`,
// which neither allocates nor unwinds (`try_with` tolerates thread
// teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, transactions)` of the subset's sessions, counted on a
/// fresh thread so its thread-local buffer pool starts empty every run.
/// Testbed assembly is outside the count; only capture is measured.
fn synthesize_subset() -> (u64, u64) {
    std::thread::spawn(|| {
        let catalog = Catalog::paper();
        let cfg = SessionConfig {
            seed: PAPER_SEED,
            ..SessionConfig::default()
        };
        let cells = campaign_cells(&catalog, &CellSelection::Strided(STRIDE))
            .expect("the strided grid resolves");
        let (mut allocations, mut transactions) = (0, 0);
        for (spec, os, medium) in cells {
            let mut tb = Testbed::for_cell(spec, os, PAPER_SEED);
            let before = ALLOCATIONS.with(Cell::get);
            let trace = tb.run_session(spec, os, medium, &cfg);
            allocations += ALLOCATIONS.with(Cell::get) - before;
            transactions += trace.transactions.len() as u64;
        }
        (allocations, transactions)
    })
    .join()
    .expect("synthesis thread")
}

#[test]
fn session_synthesis_stays_within_its_allocation_budget() {
    // Warm any process-wide lazily built tables before counting.
    synthesize_subset();
    let first = synthesize_subset();
    let second = synthesize_subset();
    assert_eq!(first, second, "single-threaded allocation counts drifted");
    let (allocations, transactions) = first;
    assert!(
        transactions > 1_000,
        "the subset captured {transactions} transactions"
    );
    let per_transaction = allocations as f64 / transactions as f64;
    println!(
        "{allocations} allocations over {transactions} transactions = {per_transaction:.2} each"
    );
    assert!(
        per_transaction <= BUDGET_PER_TRANSACTION,
        "{per_transaction:.2} allocations per transaction exceeds the budget of \
         {BUDGET_PER_TRANSACTION}"
    );
}
