//! The rule set: D1–D3 (determinism), R1–R2 (robustness), S1 (float
//! total order). Each rule is a token-sequence matcher over the
//! significant-token view, with the class/test-region/annotation checks
//! centralized in [`emit`].
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | no wall clocks or ambient entropy (`Instant::now`, `SystemTime`, `std::time`) outside bench/tool code |
//! | `D2` | no iteration over `HashMap`/`HashSet` feeding aggregation without a sort/`BTreeMap` nearby |
//! | `D3` | `SimRng::fork` labels are string literals or `rng_labels` items, unique workspace-wide; each `rng_labels` item is forked at one site; no `SimRng` field outside `netsim` |
//! | `R1` | no `unwrap()` / `expect("…")` / `panic!`-family macro / indexing-by-literal in library code |
//! | `R2` | no hand-rolled `ToJson`/`FromJson` impls outside `crates/json` (use `impl_json!`) |
//! | `S1` | float comparisons in `appvsweb-analysis` use total-order helpers, not `partial_cmp` |

use crate::engine::{rule_applies, AllowMap, FileCtx, FileSink, Finding, LabelSite, SourceFile};
use crate::lexer::TokKind;
use std::collections::{BTreeMap, BTreeSet};

/// Append a finding at token `i` unless the file class or a test region
/// exempts it, or an inline annotation waives it (see [`FileSink::emit`]).
fn emit(ctx: &FileCtx<'_>, sink: &mut FileSink, rule: &str, i: usize, message: String) {
    emit_at(ctx, sink, rule, ctx.sig.line(i), message);
}

/// [`emit`] at a source line.
fn emit_at(ctx: &FileCtx<'_>, sink: &mut FileSink, rule: &str, line: u32, message: String) {
    if !rule_applies(rule, ctx.class) || ctx.in_test_region(line) {
        return;
    }
    sink.emit(&ctx.allows, ctx.path, rule, line as u64, message);
}

/// Run every single-file rule over one file.
pub(crate) fn run_file_rules(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    rule_d1_wall_clock(ctx, sink);
    rule_d2_hash_iteration(ctx, sink);
    rule_d3_fork_labels(ctx, sink);
    rule_d3_rng_fields(ctx, sink);
    rule_r1_panic_paths(ctx, sink);
    rule_r2_hand_rolled_json(ctx, sink);
    rule_s1_total_order(ctx, sink);
}

// ---------------------------------------------------------------- D1 --

/// D1: simulated time is `SimTime`; wall clocks would make two
/// runs of the same seed diverge, so they are confined to bench code.
fn rule_d1_wall_clock(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        let t = sig.text(i);
        // The lexer emits `::` as two `:` puncts.
        let path_sep = sig.text(i + 1) == ":" && sig.text(i + 2) == ":";
        let hit = match t {
            "SystemTime" => Some("SystemTime is wall-clock state"),
            "Instant" if path_sep && sig.text(i + 3) == "now" => {
                Some("Instant::now() reads the wall clock")
            }
            "std" if path_sep && sig.text(i + 3) == "time" => Some("std::time is wall-clock state"),
            _ => None,
        };
        if let Some(why) = hit {
            emit(
                ctx,
                sink,
                "D1",
                i,
                format!("{why}; use SimTime (or move to bench code)"),
            );
        }
    }
}

// ---------------------------------------------------------------- D2 --

const D2_ITERATORS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];
const D2_MITIGATIONS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];
/// Tokens scanned after an iteration site for a mitigation; generous
/// enough to cover a collect-into-vec-then-sort in the next statement.
const D2_WINDOW: usize = 60;

/// D2 (heuristic): find bindings declared as `HashMap`/`HashSet`, then
/// flag iteration over them unless a sort or B-tree collection appears
/// within the next few statements. `HashMap` lookups (`get`/`insert`)
/// are order-free and stay legal; only *iteration order* can leak into
/// aggregates or serialized output.
fn rule_d2_hash_iteration(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    let sig = &ctx.sig;
    // Pass 1: names bound to hash collections.
    let mut bindings: BTreeSet<String> = BTreeSet::new();
    for i in 0..sig.len() {
        if sig.text(i) != "HashMap" && sig.text(i) != "HashSet" {
            continue;
        }
        // `name: HashMap<...>` (typed let, field, or param).
        if sig.before(i, 1) == ":" && sig.kind(i.saturating_sub(2)) == TokKind::Ident {
            bindings.insert(sig.before(i, 2).to_string());
        }
        // `let [mut] name = HashMap::new()`.
        if sig.before(i, 1) == "=" {
            let name_at = i.saturating_sub(2);
            if sig.kind(name_at) == TokKind::Ident
                && matches!(sig.before(name_at, 1), "let" | "mut")
            {
                bindings.insert(sig.text(name_at).to_string());
            }
        }
    }
    if bindings.is_empty() {
        return;
    }
    // Pass 2: iteration over a bound name.
    for i in 0..sig.len() {
        if !bindings.contains(sig.text(i)) {
            continue;
        }
        let iterated = (sig.text(i + 1) == "."
            && D2_ITERATORS.contains(&sig.text(i + 2))
            && sig.text(i + 3) == "(")
            || (1..=3).any(|back| sig.before(i, back) == "in")
                && (0..16).any(|back| sig.before(i, back) == "for");
        if !iterated {
            continue;
        }
        let mitigated = (i..i + D2_WINDOW).any(|j| D2_MITIGATIONS.contains(&sig.text(j)));
        if !mitigated {
            emit(
                ctx,
                sink,
                "D2",
                i,
                format!(
                    "iteration over hash collection `{}` feeds downstream state in \
                     nondeterministic order; sort first or use a BTreeMap/BTreeSet",
                    sig.text(i)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- D3 --

/// D3: every `SimRng::fork` label is either a string literal or built in
/// the `rng_labels` module, so the workspace label table is closed and
/// reviewable. Literal labels are collected into the table and
/// `rng_labels` items into the fork-site list here; uniqueness of both
/// is resolved across files by [`check_label_uniqueness`] and
/// [`check_fork_sites`].
fn rule_d3_fork_labels(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    let sig = &ctx.sig;
    // Constants in the rng_labels module define the canonical table.
    if ctx.path.ends_with("/rng_labels.rs") {
        for i in 0..sig.len() {
            if sig.text(i) == "const"
                && sig.text(i + 2) == ":"
                && sig.text(i + 3) == "&"
                && sig.text(i + 4) == "str"
                && sig.text(i + 5) == "="
                && sig.kind(i + 6) == TokKind::Lit
            {
                sink.labels.push(LabelSite {
                    label: unquote(sig.text(i + 6)),
                    path: ctx.path.to_string(),
                    line: sig.line(i) as u64,
                });
            }
        }
        return;
    }
    for i in 0..sig.len() {
        if !(sig.text(i) == "." && sig.text(i + 1) == "fork" && sig.text(i + 2) == "(") {
            continue;
        }
        if !rule_applies("D3", ctx.class) || ctx.in_test_region(sig.line(i)) {
            continue;
        }
        // Collect the argument tokens to the matching close paren.
        let mut depth = 1usize;
        let mut j = i + 3;
        let mut arg: Vec<usize> = Vec::new();
        while j < sig.len() && depth > 0 {
            match sig.text(j) {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {}
            }
            if depth > 0 {
                arg.push(j);
            }
            j += 1;
        }
        let single_literal = arg.len() == 1
            && arg
                .first()
                .is_some_and(|&a| sig.kind(a) == TokKind::Lit && sig.text(a).starts_with('"'));
        // `rng_labels :: ITEM` anywhere in the argument names the item.
        let item = arg.windows(4).find_map(|w| match w {
            &[m, c1, c2, it]
                if sig.text(m) == "rng_labels" && sig.text(c1) == ":" && sig.text(c2) == ":" =>
            {
                Some(sig.text(it))
            }
            _ => None,
        });
        if let Some(item) = item {
            sink.forks.push((item.to_string(), sig.line(i + 1) as u64));
        }
        if single_literal {
            if let Some(&a) = arg.first() {
                sink.labels.push(LabelSite {
                    label: unquote(sig.text(a)),
                    path: ctx.path.to_string(),
                    line: sig.line(a) as u64,
                });
            }
        } else if !arg.iter().any(|&a| sig.text(a) == "rng_labels") {
            emit(
                ctx,
                sink,
                "D3",
                i + 1,
                "fork label must be a string literal or come from the rng_labels \
                 module — ad-hoc dynamic labels evade the workspace label table"
                    .to_string(),
            );
        }
    }
}

/// D3: no `SimRng` stored in a struct field outside the `netsim`
/// substrate — field storage lets a stream outlive its fork scope and
/// cross cell boundaries.
fn rule_d3_rng_fields(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    if ctx.table.module.starts_with("appvsweb_netsim") {
        return;
    }
    for ty in &ctx.table.types {
        if ty.field_types.iter().any(|t| t == "SimRng") {
            emit_at(
                ctx,
                sink,
                "D3",
                ty.line as u32,
                format!(
                    "`{}` stores a SimRng in a field outside the netsim substrate; \
                     a stashed stream outlives its fork scope and can cross cell \
                     boundaries — thread it as `&mut SimRng` or annotate the \
                     reviewed ownership",
                    ty.qual
                ),
            );
        }
    }
}

/// Strip the quotes (and any raw/byte prefix) off a string literal.
fn unquote(lit: &str) -> String {
    lit.trim_start_matches(['r', 'b', '#'])
        .trim_end_matches('#')
        .trim_matches('"')
        .to_string()
}

/// Cross-file half of D3: the label table must be duplicate-free.
pub(crate) fn check_label_uniqueness(labels: &[LabelSite], findings: &mut Vec<Finding>) {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut sorted: Vec<&LabelSite> = labels.iter().collect();
    sorted.sort_by(|a, b| {
        a.label
            .cmp(&b.label)
            .then(a.path.cmp(&b.path))
            .then(a.line.cmp(&b.line))
    });
    for site in sorted {
        if !seen.insert(&site.label) {
            findings.push(Finding {
                rule: "D3".to_string(),
                path: site.path.clone(),
                line: site.line,
                message: format!(
                    "duplicate fork label {:?}: two subsystems forking the same label \
                     from the same parent draw identical streams",
                    site.label
                ),
            });
        }
    }
}

/// Cross-file half of D3: each `rng_labels` item is forked at exactly
/// one site, or two scopes draw the same stream. Every site after the
/// first in (path, line) order is a finding, which a reviewed
/// `lint:allow(D3)` may waive (parameterized builders forked from
/// disjoint argument domains).
pub(crate) fn check_fork_sites(files: &[SourceFile], allows: &[AllowMap], sinks: &mut [FileSink]) {
    let path = |fi: usize| files.get(fi).map_or("", |f| f.path.as_str());
    let mut sites: BTreeMap<String, Vec<(usize, u64)>> = BTreeMap::new();
    for (fi, sink) in sinks.iter().enumerate() {
        for (item, line) in &sink.forks {
            sites.entry(item.clone()).or_default().push((fi, *line));
        }
    }
    for (item, mut uses) in sites {
        uses.sort_by(|a, b| path(a.0).cmp(path(b.0)).then(a.1.cmp(&b.1)));
        let Some(&(first, _)) = uses.first() else {
            continue;
        };
        for &(fi, line) in uses.iter().skip(1) {
            let (Some(sink), Some(allows)) = (sinks.get_mut(fi), allows.get(fi)) else {
                continue;
            };
            sink.emit(
                allows,
                path(fi),
                "D3",
                line,
                format!(
                    "`rng_labels::{item}` is forked at {} sites (first: {}); a stream \
                     label must have exactly one statically-known fork site or the \
                     streams collide",
                    uses.len(),
                    path(first)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- R1 --

/// R1: library code returns typed errors instead of panicking. Matches
/// `.unwrap()`, `.expect("…")` (a string argument distinguishes
/// `Option::expect` from unrelated `expect` methods), `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!`, and indexing by an integer
/// literal.
fn rule_r1_panic_paths(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        match sig.text(i) {
            "unwrap"
                if sig.before(i, 1) == "." && sig.text(i + 1) == "(" && sig.text(i + 2) == ")" =>
            {
                emit(
                    ctx,
                    sink,
                    "R1",
                    i,
                    "unwrap() in library code; return a typed error, provide a \
                     fallback, or annotate the reviewed invariant"
                        .to_string(),
                );
            }
            "expect"
                if sig.before(i, 1) == "."
                    && sig.text(i + 1) == "("
                    && sig.text(i + 2).starts_with('"') =>
            {
                emit(
                    ctx,
                    sink,
                    "R1",
                    i,
                    "expect() in library code; return a typed error instead of \
                     panicking with a message"
                        .to_string(),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if sig.text(i + 1) == "!" => {
                emit(
                    ctx,
                    sink,
                    "R1",
                    i,
                    format!(
                        "{}! in library code; bubble a typed error up instead",
                        sig.text(i)
                    ),
                );
            }
            "[" if sig.kind(i + 1) == TokKind::Num
                && sig.text(i + 2) == "]"
                && (matches!(sig.kind(i.saturating_sub(1)), TokKind::Ident)
                    || matches!(sig.before(i, 1), ")" | "]")) =>
            {
                emit(
                    ctx,
                    sink,
                    "R1",
                    i,
                    format!(
                        "indexing by literal `[{}]` can panic; use .first()/.get({})",
                        sig.text(i + 1),
                        sig.text(i + 1)
                    ),
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- R2 --

/// R2: serialization goes through `impl_json!` so every type shares the
/// canonical-form guarantees (stable key order, fixed-point reparse).
/// A hand-rolled `impl ToJson for …` outside `crates/json` drifts.
fn rule_r2_hand_rolled_json(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    if ctx.path.starts_with("crates/json/") {
        return;
    }
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if sig.text(i) != "impl" {
            continue;
        }
        let mut saw_trait = false;
        for j in i + 1..(i + 40).min(sig.len()) {
            match sig.text(j) {
                "ToJson" | "FromJson" => saw_trait = true,
                "for" if saw_trait => {
                    emit(
                        ctx,
                        sink,
                        "R2",
                        i,
                        "hand-rolled ToJson/FromJson impl; use impl_json! so the \
                         type keeps the workspace's canonical JSON form"
                            .to_string(),
                    );
                    break;
                }
                "{" | ";" => break,
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------- S1 --

/// S1: `partial_cmp` on floats panics or misorders on NaN; the analysis
/// crate must use `f64::total_cmp` / `stats::sort_floats` so aggregate
/// ordering is total and deterministic.
fn rule_s1_total_order(ctx: &FileCtx<'_>, sink: &mut FileSink) {
    if !ctx.path.starts_with("crates/analysis/") {
        return;
    }
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if sig.text(i) == "partial_cmp" {
            emit(
                ctx,
                sink,
                "S1",
                i,
                "partial_cmp in the analysis crate; use f64::total_cmp or \
                 stats::sort_floats for a total, NaN-safe order"
                    .to_string(),
            );
        }
    }
}
