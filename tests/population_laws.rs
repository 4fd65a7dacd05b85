//! Property tests for the population merge algebra.
//!
//! Everything a shard aggregates must be a commutative-monoid
//! homomorphism of stream concatenation — that is the entire basis of
//! the campaign's "any worker count, byte-identical report" contract.
//! These properties pin the laws the reduction tree relies on:
//!
//! * merge is **commutative** and (in the exact regime) **associative**,
//!   up to byte-identical serialization,
//! * the empty state is a two-sided **identity**,
//! * `merge(a, b)` equals sequential ingestion of both streams,
//! * and the laws survive the *real* ingest path: campaigns over
//!   studies measured under arbitrary panic-free fault plans still
//!   produce byte-identical reports at 1/2/8 workers and under any
//!   shard partitioning (`population_cli::contract`, the same checks
//!   `repro population --smoke` runs).

use appvsweb::analysis::{PopulationAggregate, QuantileSketch, Study, TopKSketch};
use appvsweb::core::study::run_cell;
use appvsweb::netsim::{FaultPlan, Os, SimRng};
use appvsweb::population::{run_campaign_on, CampaignConfig};
use appvsweb::services::{Catalog, Medium};
use appvsweb_bench::cli::report;
use appvsweb_bench::population_cli::contract;
use appvsweb_testkit::fixtures::{fault_plans, quick_study_config_with};
use appvsweb_testkit::{check, check_with, gen, PropConfig};

fn encode<T: appvsweb::json::ToJson>(value: &T) -> String {
    appvsweb::json::encode(value)
}

// ---------------------------------------------------------------------
// Quantile sketch laws
// ---------------------------------------------------------------------

/// Generator of sample streams with the full input zoo: positive,
/// negative, zero, subnormal-small, and non-finite values.
fn sample_streams() -> impl gen::Gen<Value = Vec<f64>> {
    gen::from_fn(|rng: &mut SimRng| {
        let len = rng.below(60) as usize;
        (0..len)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => -(rng.below(1_000_000) as f64) / 3.0,
                5 => 1e-12 * rng.unit(),
                _ => rng.unit() * 2e6 - 1e5,
            })
            .collect()
    })
}

fn sketch_of(stream: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in stream {
        s.add(v);
    }
    s
}

#[test]
fn quantile_merge_is_a_stream_homomorphism() {
    let streams = (sample_streams(), sample_streams());
    check("quantile merge laws", &streams, |(xs, ys)| {
        let a = sketch_of(xs);
        let b = sketch_of(ys);

        // merge == sequential ingestion of the concatenated stream.
        let mut merged = a.clone();
        merged.merge(&b);
        let both: Vec<f64> = xs.iter().chain(ys).copied().collect();
        assert_eq!(encode(&merged), encode(&sketch_of(&both)));

        // Commutative, byte for byte.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(encode(&merged), encode(&flipped));

        // Empty identity, both sides.
        let mut left = QuantileSketch::new();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&QuantileSketch::new());
        assert_eq!(encode(&left), encode(&a));
        assert_eq!(encode(&right), encode(&a));
    });
}

#[test]
fn quantile_merge_is_associative() {
    let streams = (sample_streams(), sample_streams(), sample_streams());
    check("quantile merge associativity", &streams, |(xs, ys, zs)| {
        let (a, b, c) = (sketch_of(xs), sketch_of(ys), sketch_of(zs));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(encode(&ab_c), encode(&a_bc));
    });
}

// ---------------------------------------------------------------------
// Top-k sketch laws
// ---------------------------------------------------------------------

/// Generator of `(key, count)` streams over a small key universe, so
/// collisions (the interesting case) are common.
fn key_streams() -> impl gen::Gen<Value = Vec<(String, u64)>> {
    gen::from_fn(|rng: &mut SimRng| {
        let len = rng.below(40) as usize;
        (0..len)
            .map(|_| (format!("org{}", rng.below(10)), 1 + rng.below(50)))
            .collect()
    })
}

fn topk_of(stream: &[(String, u64)], capacity: u32) -> TopKSketch {
    let mut t = TopKSketch::with_capacity(capacity);
    for (k, n) in stream {
        t.add(k, *n);
    }
    t
}

#[test]
fn topk_merge_laws_hold_exactly_in_the_unbounded_regime() {
    let streams = (key_streams(), key_streams(), key_streams());
    check("topk exact merge laws", &streams, |(xs, ys, zs)| {
        let (a, b, c) = (topk_of(xs, 0), topk_of(ys, 0), topk_of(zs, 0));

        // merge == sequential ingestion.
        let mut merged = a.clone();
        merged.merge(&b);
        let both: Vec<(String, u64)> = xs.iter().chain(ys).cloned().collect();
        assert_eq!(encode(&merged), encode(&topk_of(&both, 0)));
        assert!(merged.is_exact());

        // Commutative.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(encode(&merged), encode(&flipped));

        // Associative.
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(encode(&ab_c), encode(&a_bc));

        // Empty identity, both sides (Default has capacity 0).
        let mut left = TopKSketch::default();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&TopKSketch::default());
        assert_eq!(encode(&left), encode(&a));
        assert_eq!(encode(&right), encode(&a));
    });
}

#[test]
fn topk_bounded_merges_stay_commutative_and_conserve_mass() {
    // Above capacity the sketch deliberately trades associativity for
    // bounded memory — but commutativity, the capacity bound, and the
    // dropped-mass ledger must survive arbitrary eviction pressure.
    let inputs = (key_streams(), key_streams(), gen::u64s(1..=5));
    check("topk bounded merge laws", &inputs, |(xs, ys, cap)| {
        let capacity = *cap as u32;
        let a = topk_of(xs, capacity);
        let b = topk_of(ys, capacity);
        let ingested: u64 = xs.iter().chain(ys).map(|(_, n)| n).sum();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(encode(&ab), encode(&ba), "bounded merge must commute");
        assert!(ab.entries.len() <= capacity as usize);
        assert_eq!(
            ab.total() + ab.dropped,
            ingested,
            "every ingested count is either retained or accounted as dropped"
        );
    });
}

// ---------------------------------------------------------------------
// Aggregate laws through the real ingest path, under chaos
// ---------------------------------------------------------------------

/// Measure a small real study (two services, both media, one OS) under
/// a fault plan. `fault_plans()` holds `cell_panic` at zero, so every
/// cell completes — the panic-free chaos regime of the issue spec.
fn chaos_study(faults: FaultPlan) -> Study {
    let catalog = Catalog::paper();
    let cfg = quick_study_config_with(faults);
    let mut cells = Vec::new();
    for id in ["weather-channel", "bbc-news"] {
        let spec = catalog.get(id).expect("catalog service");
        for medium in Medium::BOTH {
            cells.push(run_cell(spec, Os::Android, medium, &cfg, None));
        }
    }
    Study {
        cells,
        health: Default::default(),
    }
}

#[test]
fn campaign_laws_survive_arbitrary_panic_free_fault_plans() {
    // A handful of generated plans: each study measurement is a real
    // four-cell simulator run, so the case count stays small while the
    // shrinker still has structure to work with on failure. The
    // contract is the one `repro population --smoke` gates on.
    let cfg = PropConfig {
        cases: 3,
        ..PropConfig::default()
    };
    check_with(&cfg, "campaign laws under chaos", &fault_plans(), |plan| {
        let base = CampaignConfig {
            users: 200,
            shards: 8,
            workers: 1,
            seed: 2016,
        };
        let (_, checks) = contract(&chaos_study(plan.clone()), &base);
        assert_eq!(report(&checks), 0, "the population contract failed");
    });
}

#[test]
fn aggregate_merge_laws_hold_on_real_campaign_states() {
    // Aggregates built by the real ingest path (distinct populations
    // via distinct seeds) form the same commutative monoid the sketch
    // fields do.
    let study = chaos_study(FaultPlan::none());
    let agg_for = |seed: u64| {
        run_campaign_on(
            &study,
            &CampaignConfig {
                users: 150,
                shards: 4,
                workers: 2,
                seed,
            },
        )
        .aggregate
    };
    let (a, b, c) = (agg_for(1), agg_for(2), agg_for(3));

    // Commutative.
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(encode(&ab), encode(&ba));

    // Associative.
    let mut ab_c = ab.clone();
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(encode(&ab_c), encode(&a_bc));

    // Identity, both sides.
    let mut left = PopulationAggregate::new();
    left.merge(&a);
    let mut right = a.clone();
    right.merge(&PopulationAggregate::new());
    assert_eq!(encode(&left), encode(&a));
    assert_eq!(encode(&right), encode(&a));

    // The merge really combined both populations.
    assert_eq!(ab.users, a.users + b.users);
    assert_eq!(ab.sessions, a.sessions + b.sessions);
}

#[test]
fn shard_state_memory_is_constant_in_user_count() {
    // The constant-memory acceptance criterion, as a test: 16x the
    // users must not grow the peak shard state (sketches only ever add
    // buckets/keys from the fixed cell universe).
    let study = chaos_study(FaultPlan::none());
    let peak = |users: u64| {
        run_campaign_on(
            &study,
            &CampaignConfig {
                users,
                shards: 4,
                workers: 2,
                seed: 7,
            },
        )
        .peak_state_bytes
    };
    let small = peak(500);
    let large = peak(8_000);
    assert!(small > 0);
    assert!(
        large <= small * 2,
        "16x users must not grow shard state: {small} -> {large} bytes"
    );
}
