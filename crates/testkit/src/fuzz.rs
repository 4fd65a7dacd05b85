//! Coverage-guided, corpus-persisting, fully deterministic fuzzing.
//!
//! The engine grows the fixed-seed property harness into a byte-level
//! fuzzer in the libFuzzer/AFL mould, with every source of schedule
//! entropy drawn from the workspace's [`SimRng`] stream:
//!
//! * **Targets** ([`FuzzTarget`]): a totality harness per parser — a
//!   plain `fn(&[u8])` that must not panic on *any* input — plus a
//!   token dictionary and built-in seed inputs. Registration lives with
//!   each parser crate; `appvsweb-bench` collects them for `repro fuzz`.
//! * **Coverage** (`appvsweb-cover`): instrumented parsers bump an
//!   AFL-style edge map; an input that reaches a new edge (or a new
//!   hit-count bucket for a known edge) joins the in-memory corpus and
//!   is reported as a discovery worth committing.
//! * **Mutation** ([`mutate`]): stacked byte-level operators — bit
//!   flips, interesting bytes, chunk deletion/duplication, splicing,
//!   and dictionary insertion — scheduled entirely by a stream forked
//!   per target from `rng_labels::fuzz_target`, so the same seed and
//!   corpus replay the exact same inputs on every machine.
//! * **Minimization**: crash inputs are shrunk through the property
//!   harness's greedy ladder (`prop::shrink` over [`gen::bytes`]), the
//!   same machinery `prop_test!` failures use.
//!
//! Nothing here reads a wall clock; execs/sec reporting lives in the
//! bench crate, which times the deterministic run from outside.

use crate::fixtures::with_quiet_panics;
use crate::gen;
use crate::prop::{self, PropConfig};
use appvsweb_netsim::{rng_labels, SimRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// One registered fuzz target: a parser totality harness plus the
/// corpus-seeding material that helps the mutator speak its language.
#[derive(Clone, Copy)]
pub struct FuzzTarget {
    /// Stable target name; keys the corpus directory
    /// (`tests/corpus/<name>/`) and the RNG stream.
    pub name: &'static str,
    /// The harness: must be total (no panic) on arbitrary bytes; any
    /// panic is recorded, minimized, and reported as a crash.
    pub run: fn(&[u8]),
    /// Dictionary tokens (magic numbers, keywords, punctuation) the
    /// mutator splices in verbatim.
    pub dict: &'static [&'static [u8]],
    /// Built-in seed inputs, merged with the on-disk corpus.
    pub seeds: &'static [&'static [u8]],
    /// Cap on generated input length (keeps recursive matchers and
    /// quadratic paths inside the smoke-test budget).
    pub max_len: usize,
}

/// Engine parameters. Everything is deterministic given `seed`, the
/// corpus, and the target code.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Schedule seed; forked per target by name.
    pub seed: u64,
    /// Mutation executions per target (corpus replay is extra).
    pub iters: u64,
    /// Stop collecting after this many distinct crashes per target.
    pub max_crashes: usize,
    /// Cap on shrink steps when minimizing a crash input.
    pub max_shrink_steps: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 2016,
            iters: 2_000,
            max_crashes: 8,
            max_shrink_steps: 512,
        }
    }
}

/// A crash the engine found: the minimized input and the panic message
/// the minimized input produces.
#[derive(Clone, Debug)]
pub struct Crash {
    /// Panic message of the minimized input.
    pub message: String,
    /// Minimized crashing input.
    pub input: Vec<u8>,
    /// Length of the input as originally found, before minimization.
    pub original_len: usize,
}

/// Everything one target's fuzz run produced.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Target name.
    pub target: String,
    /// Total harness executions (corpus replay + mutations).
    pub execs: u64,
    /// Distinct coverage edges reached across the run.
    pub edges: u64,
    /// Corpus entries replayed (on-disk + built-in seeds).
    pub corpus_in: usize,
    /// Corpus entries that crashed during replay (regression failures).
    pub replay_crashes: Vec<Crash>,
    /// Mutated inputs that reached new coverage — candidates for
    /// committing to `tests/corpus/<target>/`.
    pub discoveries: Vec<Vec<u8>>,
    /// Distinct crashes found by mutation, minimized.
    pub crashes: Vec<Crash>,
}

impl FuzzOutcome {
    /// Whether the run surfaced any crash, in replay or mutation.
    pub fn is_clean(&self) -> bool {
        self.replay_crashes.is_empty() && self.crashes.is_empty()
    }
}

/// Hit-count buckets, AFL style: moving to a new bucket for a known
/// edge counts as new coverage, so "loop ran 50 times" and "loop ran
/// once" are distinguishable signals.
fn bucket(count: u32) -> u8 {
    match count {
        0 => 0, // unreachable: nonzero_into never yields zero counts
        1 => 0,
        2 => 1,
        3 => 2,
        4..=7 => 3,
        8..=15 => 4,
        16..=31 => 5,
        32..=127 => 6,
        _ => 7,
    }
}

/// Per-slot bitmask of buckets seen so far.
struct SeenMap {
    bits: Vec<u8>,
}

impl SeenMap {
    fn new() -> Self {
        SeenMap {
            bits: vec![0u8; appvsweb_cover::MAP_SIZE],
        }
    }

    /// Merge a snapshot; true if any (slot, bucket) pair is new.
    fn merge(&mut self, snapshot: &[(u16, u32)]) -> bool {
        let mut new = false;
        for &(slot, count) in snapshot {
            let bit = 1u8 << bucket(count);
            if let Some(slot_bits) = self.bits.get_mut(slot as usize) {
                if *slot_bits & bit == 0 {
                    *slot_bits |= bit;
                    new = true;
                }
            }
        }
        new
    }

    /// Distinct edges (slots) seen at any bucket.
    fn edges(&self) -> u64 {
        self.bits.iter().filter(|&&b| b != 0).count() as u64
    }
}

enum Exec {
    Ok { new_coverage: bool },
    Crash(String),
}

/// Run the target once under the coverage map and merge the snapshot.
fn execute(
    target: &FuzzTarget,
    input: &[u8],
    scratch: &mut Vec<(u16, u32)>,
    seen: &mut SeenMap,
) -> Exec {
    appvsweb_cover::reset();
    appvsweb_cover::enable();
    let result = catch_unwind(AssertUnwindSafe(|| (target.run)(input)));
    appvsweb_cover::disable();
    scratch.clear();
    appvsweb_cover::nonzero_into(scratch);
    let new_coverage = seen.merge(scratch);
    match result {
        Ok(()) => Exec::Ok { new_coverage },
        Err(payload) => Exec::Crash(prop::panic_message(payload)),
    }
}

/// Minimize a crashing input through the property harness's greedy
/// shrink ladder: any candidate that still crashes the target is taken.
fn minimize(target: &FuzzTarget, input: Vec<u8>, max_steps: u32) -> Crash {
    let original_len = input.len();
    let cfg = PropConfig {
        seed: 0,
        cases: 0,
        max_shrink_steps: max_steps,
    };
    let byte_gen = gen::bytes(0..=input.len());
    let runner = |bytes: &Vec<u8>| (target.run)(bytes);
    let (minimal, _steps) = prop::shrink(&cfg, &byte_gen, &runner, input);
    let message = match catch_unwind(AssertUnwindSafe(|| (target.run)(&minimal))) {
        Ok(()) => "crash did not reproduce after minimization".to_string(),
        Err(payload) => prop::panic_message(payload),
    };
    Crash {
        message,
        input: minimal,
        original_len,
    }
}

/// Fuzz one target: replay the corpus, then mutate for `cfg.iters`
/// executions, tracking coverage and minimizing crashes.
///
/// `corpus` is the committed on-disk corpus (already loaded); built-in
/// target seeds are merged in. Deterministic: same `(seed, corpus,
/// target code)` → same execs, same discoveries, same coverage count.
pub fn fuzz(target: &FuzzTarget, corpus: &[Vec<u8>], cfg: &FuzzConfig) -> FuzzOutcome {
    // Silence panic reports for the whole run: crashing inputs are data
    // here, not reportable failures. (The coverage map is per thread, so
    // runs on concurrent threads do not share it.)
    with_quiet_panics(|| fuzz_quietly(target, corpus, cfg))
}

fn fuzz_quietly(target: &FuzzTarget, corpus: &[Vec<u8>], cfg: &FuzzConfig) -> FuzzOutcome {
    let mut rng = SimRng::new(cfg.seed).fork(&rng_labels::fuzz_target(target.name));
    let mut seen = SeenMap::new();
    let mut scratch: Vec<(u16, u32)> = Vec::new();
    let mut execs = 0u64;

    // Pool: built-in seeds first, then the committed corpus, deduped.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    for seed in target.seeds {
        if !pool.iter().any(|p| p == seed) {
            pool.push(seed.to_vec());
        }
    }
    for entry in corpus {
        if !pool.iter().any(|p| p == entry) {
            pool.push(entry.clone());
        }
    }
    if pool.is_empty() {
        pool.push(Vec::new());
    }
    let corpus_in = pool.len();

    // Phase 1: replay. A crash here means a committed regression input
    // no longer passes — reported separately so CI can fail hard.
    let mut replay_crashes = Vec::new();
    for input in &pool {
        execs += 1;
        if let Exec::Crash(message) = execute(target, input, &mut scratch, &mut seen) {
            replay_crashes.push(Crash {
                message,
                input: input.clone(),
                original_len: input.len(),
            });
        }
    }

    // Phase 2: mutate. Crashes are deduplicated by message before the
    // (expensive) minimization pass.
    let mut discoveries: Vec<Vec<u8>> = Vec::new();
    let mut crashes: Vec<Crash> = Vec::new();
    let mut crash_messages: Vec<String> = Vec::new();
    for _ in 0..cfg.iters {
        let base_idx = rng.below(pool.len() as u64) as usize;
        let other_idx = rng.below(pool.len() as u64) as usize;
        let base = pool.get(base_idx).cloned().unwrap_or_default();
        let other = pool.get(other_idx).cloned().unwrap_or_default();
        let input = mutate(&mut rng, &base, &other, target.dict, target.max_len);
        execs += 1;
        match execute(target, &input, &mut scratch, &mut seen) {
            Exec::Ok { new_coverage } => {
                if new_coverage {
                    discoveries.push(input.clone());
                    pool.push(input);
                }
            }
            Exec::Crash(message) => {
                if crashes.len() < cfg.max_crashes && !crash_messages.contains(&message) {
                    crash_messages.push(message);
                    let crash = minimize(target, input, cfg.max_shrink_steps);
                    if !crash_messages.contains(&crash.message) {
                        crash_messages.push(crash.message.clone());
                    }
                    crashes.push(crash);
                }
            }
        }
    }

    FuzzOutcome {
        target: target.name.to_string(),
        execs,
        edges: seen.edges(),
        corpus_in,
        replay_crashes,
        discoveries,
        crashes,
    }
}

// ------------------------------------------------------------- mutator

/// Bytes worth trying verbatim: boundaries of signed/unsigned widths
/// and the ASCII characters most grammars pivot on.
const INTERESTING: &[u8] = &[
    0x00, 0x01, 0x7f, 0x80, 0xff, b' ', b'"', b'%', b'0', b'9', b'=', b'&', b'\\', b'\n',
];

/// One stacked mutation of `base`. `other` is a second corpus entry for
/// splicing; `dict` supplies grammar tokens. The result is truncated to
/// `max_len`.
pub fn mutate(
    rng: &mut SimRng,
    base: &[u8],
    other: &[u8],
    dict: &[&[u8]],
    max_len: usize,
) -> Vec<u8> {
    let mut out = base.to_vec();
    let ops = 1 + rng.below(3);
    for _ in 0..ops {
        apply_op(rng, &mut out, other, dict);
    }
    if out.len() > max_len {
        out.truncate(max_len);
    }
    out
}

fn apply_op(rng: &mut SimRng, out: &mut Vec<u8>, other: &[u8], dict: &[&[u8]]) {
    // An empty buffer supports only growth operators.
    if out.is_empty() {
        match rng.choose(dict) {
            Some(token) => out.extend_from_slice(token),
            None => out.push(rng.below(256) as u8),
        }
        return;
    }
    match rng.below(9) {
        0 => {
            // Single bit flip.
            let i = rng.below(out.len() as u64) as usize;
            if let Some(b) = out.get_mut(i) {
                *b ^= 1 << rng.below(8);
            }
        }
        1 => {
            // Random byte overwrite.
            let i = rng.below(out.len() as u64) as usize;
            if let Some(b) = out.get_mut(i) {
                *b = rng.below(256) as u8;
            }
        }
        2 => {
            // Interesting byte overwrite.
            let i = rng.below(out.len() as u64) as usize;
            let v = rng.choose(INTERESTING).copied().unwrap_or(0);
            if let Some(b) = out.get_mut(i) {
                *b = v;
            }
        }
        3 => {
            // Delete a chunk.
            let start = rng.below(out.len() as u64) as usize;
            let len = 1 + rng.below(8.min(out.len() as u64)) as usize;
            let end = (start + len).min(out.len());
            out.drain(start..end);
        }
        4 => {
            // Insert random bytes.
            let at = rng.below(out.len() as u64 + 1) as usize;
            let n = 1 + rng.below(4) as usize;
            for k in 0..n {
                out.insert((at + k).min(out.len()), rng.below(256) as u8);
            }
        }
        5 => {
            // Duplicate a chunk in place.
            let start = rng.below(out.len() as u64) as usize;
            let len = (1 + rng.below(8)) as usize;
            let end = (start + len).min(out.len());
            let chunk: Vec<u8> = out.get(start..end).map(<[u8]>::to_vec).unwrap_or_default();
            let at = rng.below(out.len() as u64 + 1) as usize;
            for (k, b) in chunk.into_iter().enumerate() {
                out.insert((at + k).min(out.len()), b);
            }
        }
        6 => {
            // Dictionary insert.
            if let Some(token) = rng.choose(dict) {
                let at = rng.below(out.len() as u64 + 1) as usize;
                for (k, &b) in token.iter().enumerate() {
                    out.insert((at + k).min(out.len()), b);
                }
            }
        }
        7 => {
            // Dictionary overwrite.
            if let Some(&token) = rng.choose(dict) {
                let at = rng.below(out.len() as u64) as usize;
                for (k, &b) in token.iter().enumerate() {
                    match out.get_mut(at + k) {
                        Some(slot) => *slot = b,
                        None => out.push(b),
                    }
                }
            }
        }
        _ => {
            // Splice: our prefix, the other entry's suffix.
            let cut = rng.below(out.len() as u64 + 1) as usize;
            let other_cut = rng.below(other.len() as u64 + 1) as usize;
            out.truncate(cut);
            out.extend_from_slice(other.get(other_cut..).unwrap_or_default());
        }
    }
}

// ------------------------------------------------------------- corpus

/// Stable content hash for corpus file names (FNV-1a, 64-bit).
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Load every corpus entry under `dir`, sorted by file name so replay
/// order (and therefore the whole schedule) is deterministic. A missing
/// directory is an empty corpus, not an error.
pub fn load_corpus_dir(dir: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if path.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((name, std::fs::read(&path)?));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Corpus distillation for `repro fuzz --minimize`: replay the built-in
/// seeds, then each named corpus entry in order, and return the names of
/// the entries that contributed new coverage. Entries not returned are
/// redundant with the seeds and earlier entries and can be deleted.
/// Crashing entries are always kept — they are regressions to report,
/// not redundancy to discard.
pub fn distill(target: &FuzzTarget, corpus: &[(String, Vec<u8>)]) -> Vec<String> {
    with_quiet_panics(|| {
        let mut seen = SeenMap::new();
        let mut scratch: Vec<(u16, u32)> = Vec::new();
        for seed in target.seeds {
            let _ = execute(target, seed, &mut scratch, &mut seen);
        }
        let mut keep = Vec::new();
        for (name, data) in corpus {
            match execute(target, data, &mut scratch, &mut seen) {
                Exec::Ok {
                    new_coverage: false,
                } => {}
                Exec::Ok { new_coverage: true } | Exec::Crash(_) => keep.push(name.clone()),
            }
        }
        keep
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_target(data: &[u8]) {
        // Branchy but total: exercises the coverage map.
        match data.first() {
            Some(b'{') => appvsweb_cover::cover!(),
            Some(b'[') => appvsweb_cover::cover!(),
            Some(_) => appvsweb_cover::cover!(),
            None => appvsweb_cover::cover!(),
        }
    }

    fn crashing_target(data: &[u8]) {
        appvsweb_cover::cover!();
        if data.starts_with(b"BOOM") {
            appvsweb_cover::cover!();
            assert!(data.len() < 4, "fuzzer reached the guarded branch");
        }
    }

    const TOTAL: FuzzTarget = FuzzTarget {
        name: "selftest-total",
        run: total_target,
        dict: &[b"{", b"[", b"x"],
        seeds: &[b"{}"],
        max_len: 64,
    };

    const CRASHING: FuzzTarget = FuzzTarget {
        name: "selftest-crash",
        run: crashing_target,
        dict: &[b"BOOM", b"BO", b"OM"],
        seeds: &[b"BOO", b"OOM"],
        max_len: 32,
    };

    #[test]
    fn fuzzing_is_deterministic() {
        let cfg = FuzzConfig {
            iters: 300,
            ..FuzzConfig::default()
        };
        let a = fuzz(&TOTAL, &[], &cfg);
        let b = fuzz(&TOTAL, &[], &cfg);
        assert_eq!(a.execs, b.execs);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.discoveries, b.discoveries);
        assert!(a.is_clean());
        assert!(a.edges >= 2, "distinct branches must appear as edges");
    }

    #[test]
    fn fuzzer_finds_and_minimizes_the_guarded_crash() {
        let cfg = FuzzConfig {
            iters: 2_000,
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&CRASHING, &[], &cfg);
        assert!(
            !outcome.crashes.is_empty(),
            "dictionary-guided mutation must reach the BOOM branch"
        );
        let crash = &outcome.crashes[0];
        assert!(crash.input.starts_with(b"BOOM"));
        assert!(
            crash.input.len() <= 8,
            "minimization should strip the tail: {:?}",
            crash.input
        );
    }

    #[test]
    fn replay_crashes_are_reported_separately() {
        let cfg = FuzzConfig {
            iters: 0,
            ..FuzzConfig::default()
        };
        let corpus = vec![b"BOOMBOOM".to_vec()];
        let outcome = fuzz(&CRASHING, &corpus, &cfg);
        assert_eq!(outcome.replay_crashes.len(), 1);
        assert_eq!(outcome.execs, 3, "two seeds + one corpus entry");
    }

    #[test]
    fn mutation_respects_max_len() {
        let mut rng = SimRng::new(7).fork("mutate-len");
        for _ in 0..200 {
            let out = mutate(&mut rng, b"0123456789", b"abcdef", &[b"TOKEN"], 16);
            assert!(out.len() <= 16);
        }
    }

    #[test]
    fn content_hash_is_stable() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
    }
}
