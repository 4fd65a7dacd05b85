//! The interprocedural passes over the workspace call graph: T1 PII
//! taint, R1x transitive panic-reachability, and D3x RNG stream
//! discipline.
//!
//! All three are deliberately *static over-approximations* whose
//! soundness caveats are documented in DESIGN §10; each finding can be
//! waived with a reviewed `lint:allow` annotation naming `T1`, `R1x`,
//! or `D3x` at the reported line, exactly like the file-local rules.
//!
//! * **T1** — the paper's leak analysis turned on our own code: a
//!   function that *handles PII* (its signature mentions a type defined
//!   in `pii::types`/`pii::profile`, or it directly calls a
//!   `pii::profile` constructor) must not reach a serialization, byte-
//!   encoding, or socket sink except through the audited `mitm`
//!   recording path. Traversal stops at other PII handlers (each owns
//!   its own flow) and at `mitm`; one finding per handler, carrying the
//!   shortest offending path.
//! * **R1x** — any function reachable from `serve::runner` workers or
//!   `core::study` cell execution whose body can panic (`unwrap`,
//!   `expect`, panic-family macros, literal indexing) is flagged,
//!   unless the site carries a reviewed allow for `R1` or `R1x`, or
//!   the path crosses a `catch_unwind` boundary.
//! * **D3x** — every `rng_labels` item is forked from exactly one
//!   statically-known scope, and no `SimRng` value is stashed in a
//!   struct field outside the `netsim` substrate (field storage is how
//!   a stream escapes its fork scope and crosses cell boundaries).

use crate::callgraph::CallGraph;
use crate::engine::{rule_applies, FileClass, Finding};
use crate::parse::FileTable;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Where PII model types and their constructors live.
const PII_MODULES: &[&str] = &["appvsweb_pii::types", "appvsweb_pii::profile"];
/// Functions originating PII values: the profile constructors/accessors.
const PII_SOURCE_PREFIX: &str = "appvsweb_pii::profile::";
/// The audited recording path: flows through here are the measurement.
const AUDITED_PREFIX: &str = "appvsweb_mitm::";
/// Crates whose internals are the serializer itself, not a flow.
const SINK_HOME_PREFIX: &str = "appvsweb_json::";

/// Roots of R1x reachability: the serve worker loop and the study-cell
/// execution path — a panic here kills a worker or poisons a cell.
const R1X_ROOT_PREFIXES: &[&str] = &[
    "appvsweb_serve::runner::",
    "appvsweb_core::study::run_cell",
    "appvsweb_core::study::run_study",
];

/// Is this node a T1 sink (serialization / wire-byte / socket)?
fn is_sink(qual: &str, name: &str) -> bool {
    (qual.starts_with("appvsweb_json::")
        && matches!(
            name,
            "encode" | "encode_pretty" | "to_compact" | "to_pretty" | "to_json"
        ))
        || (qual.starts_with("appvsweb_httpsim::wire::") && name.starts_with("serialize"))
        || (qual.starts_with("appvsweb_httpsim::codec::")
            && (name.contains("encode") || name == "form_urlencode"))
        || (qual.starts_with("appvsweb_netsim::tcp::") && name == "send")
}

/// Everything the workspace passes need, assembled by the engine.
pub struct PassCtx<'a> {
    /// Per-file item tables, sorted by path.
    pub tables: &'a [FileTable],
    /// File class per table (parallel).
    pub classes: &'a [FileClass],
    /// Valid `lint:allow` annotations per table (parallel): line → rules.
    pub allows: &'a [BTreeMap<u32, Vec<String>>],
    /// The workspace call graph over `tables`.
    pub graph: &'a CallGraph<'a>,
}

impl PassCtx<'_> {
    /// Is `rule` waived at `line` of table `ti` by an inline annotation?
    fn allowed(&self, ti: usize, rule: &str, line: u64) -> bool {
        let line = line as u32;
        self.allows.get(ti).is_some_and(|map| {
            [line, line.saturating_sub(1)].iter().any(|l| {
                map.get(l)
                    .is_some_and(|rules| rules.iter().any(|r| r == rule))
            })
        })
    }

    /// Emit unless class-waived or annotation-suppressed; suppressions
    /// are tallied per rule so the bench meta can report them.
    fn emit(
        &self,
        findings: &mut Vec<Finding>,
        suppressed: &mut BTreeMap<String, u64>,
        rule: &str,
        ti: usize,
        line: u64,
        message: String,
    ) {
        let class = self.classes.get(ti).copied().unwrap_or(FileClass::Lib);
        if !rule_applies(rule, class) {
            return;
        }
        if self.allowed(ti, rule, line) {
            *suppressed.entry(rule.to_string()).or_insert(0) += 1;
            return;
        }
        let path = self
            .tables
            .get(ti)
            .map(|t| t.path.clone())
            .unwrap_or_default();
        findings.push(Finding {
            rule: rule.to_string(),
            path,
            line,
            message,
        });
    }

    /// A node participates in workspace analyses only when it is live
    /// library/tool code (not tests, not `#[cfg(test)]` regions).
    fn live(&self, node: usize) -> bool {
        let Some(f) = self.graph.fns.get(node) else {
            return false;
        };
        if f.in_test {
            return false;
        }
        let ti = self.graph.file_of.get(node).copied().unwrap_or(usize::MAX);
        !matches!(self.classes.get(ti), Some(FileClass::Test) | None)
    }
}

/// Run all three workspace passes, appending findings (unsorted; the
/// engine sorts the merged set) and tallying suppressed sites.
pub fn run_workspace_passes(
    ctx: &PassCtx<'_>,
    findings: &mut Vec<Finding>,
    suppressed: &mut BTreeMap<String, u64>,
) {
    pass_t1_pii_taint(ctx, findings, suppressed);
    pass_r1x_panic_reachability(ctx, findings, suppressed);
    pass_d3x_stream_discipline(ctx, findings, suppressed);
}

// ---------------------------------------------------------------- T1 --

fn pass_t1_pii_taint(
    ctx: &PassCtx<'_>,
    findings: &mut Vec<Finding>,
    suppressed: &mut BTreeMap<String, u64>,
) {
    let graph = ctx.graph;
    // PII model types, discovered from the item tables.
    let pii_types: BTreeSet<&str> = ctx
        .tables
        .iter()
        .flat_map(|t| t.types.iter())
        .filter(|ty| {
            PII_MODULES
                .iter()
                .any(|m| ty.qual == format!("{m}::{}", ty.name))
        })
        .map(|ty| ty.name.as_str())
        .collect();
    if pii_types.is_empty() {
        return; // nothing to track (synthetic workspaces without pii)
    }

    // Classify every node once.
    let n = graph.fns.len();
    let mut handles_pii = vec![false; n];
    let mut audited = vec![false; n];
    let mut sink = vec![false; n];
    for (idx, f) in graph.fns.iter().enumerate() {
        audited[idx] = f.qual.starts_with(AUDITED_PREFIX);
        sink[idx] = is_sink(&f.qual, &f.name);
        let sig_mentions = f
            .sig_types
            .iter()
            .chain(f.ret_types.iter())
            .any(|t| pii_types.contains(t.as_str()));
        let calls_source = graph
            .edges
            .get(idx)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .any(|e| {
                graph
                    .fns
                    .get(e.to)
                    .is_some_and(|g| g.qual.starts_with(PII_SOURCE_PREFIX))
            });
        handles_pii[idx] = sig_mentions || calls_source;
    }

    for carrier in 0..n {
        if !handles_pii[carrier] || !ctx.live(carrier) {
            continue;
        }
        let cf = &graph.fns[carrier];
        // The serializer's own internals and the audited recorder are
        // exempt carriers; everything else owns its flows.
        if audited[carrier] || cf.qual.starts_with(SINK_HOME_PREFIX) {
            continue;
        }
        // BFS through helper functions: stop at audited nodes and at
        // other PII handlers (each handler owns its own flows), report
        // the first (= shortest-path) sink reached outside `mitm`.
        let mut seen = vec![false; n];
        seen[carrier] = true;
        let mut queue: VecDeque<usize> = VecDeque::from([carrier]);
        let mut hit: Option<usize> = None;
        'bfs: while let Some(node) = queue.pop_front() {
            for e in graph.edges.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.get(e.to).copied().unwrap_or(true) || !ctx.live(e.to) {
                    continue;
                }
                seen[e.to] = true;
                if audited[e.to] {
                    continue; // flows through mitm are the measurement
                }
                if sink[e.to] {
                    hit = Some(e.to);
                    break 'bfs;
                }
                if handles_pii[e.to] {
                    continue; // that handler owns its own flows
                }
                queue.push_back(e.to);
            }
        }
        let Some(sink_node) = hit else {
            continue;
        };
        let sf = &graph.fns[sink_node];
        let path = graph.path_between(carrier, sink_node).join(" -> ");
        let ti = graph.file_of[carrier];
        ctx.emit(
            findings,
            suppressed,
            "T1",
            ti,
            cf.line,
            format!(
                "PII handled by `{}` can reach sink `{}` without passing the audited \
                 mitm recording path ({path}); route the flow through mitm or annotate \
                 the reviewed design",
                cf.qual, sf.qual
            ),
        );
    }
}

// --------------------------------------------------------------- R1x --

fn pass_r1x_panic_reachability(
    ctx: &PassCtx<'_>,
    findings: &mut Vec<Finding>,
    suppressed: &mut BTreeMap<String, u64>,
) {
    let graph = ctx.graph;
    let n = graph.fns.len();
    // Deterministic root set: sorted node order.
    let mut roots: Vec<usize> = (0..n)
        .filter(|&i| {
            ctx.live(i)
                && R1X_ROOT_PREFIXES
                    .iter()
                    .any(|p| graph.fns[i].qual.starts_with(p))
        })
        .collect();
    roots.sort_unstable();
    if roots.is_empty() {
        return;
    }

    // Forward reachability from the roots, not descending past
    // `catch_unwind` boundaries (panics below them are absorbed).
    let mut reach_from: Vec<Option<usize>> = vec![None; n]; // first root reaching the node
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        if reach_from[r].is_none() {
            reach_from[r] = Some(r);
            queue.push_back(r);
        }
    }
    while let Some(node) = queue.pop_front() {
        if graph.fns[node].catches_unwind {
            continue; // boundary: callee panics do not escape
        }
        let root = reach_from[node];
        for e in graph.edges.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            if reach_from[e.to].is_none() && ctx.live(e.to) {
                reach_from[e.to] = root;
                queue.push_back(e.to);
            }
        }
    }

    for (node, reached) in reach_from.iter().enumerate() {
        let Some(root) = *reached else {
            continue;
        };
        let f = &graph.fns[node];
        let ti = graph.file_of[node];
        for p in &f.panics {
            if p.allowed {
                *suppressed.entry("R1x".to_string()).or_insert(0) += 1;
                continue;
            }
            let via = if root == node {
                String::new()
            } else {
                format!(
                    " (reachable from `{}` via {})",
                    graph.fns[root].qual,
                    graph.path_between(root, node).join(" -> ")
                )
            };
            ctx.emit(
                findings,
                suppressed,
                "R1x",
                ti,
                p.line,
                format!(
                    "`{}` can panic ({}) and worker/cell execution reaches it{via}; \
                     return a typed error or annotate the reviewed invariant",
                    f.qual, p.kind
                ),
            );
        }
    }
}

// --------------------------------------------------------------- D3x --

fn pass_d3x_stream_discipline(
    ctx: &PassCtx<'_>,
    findings: &mut Vec<Finding>,
    suppressed: &mut BTreeMap<String, u64>,
) {
    let graph = ctx.graph;
    // (a) every rng_labels item is forked from exactly one scope.
    let mut sites: BTreeMap<&str, Vec<(usize, u64)>> = BTreeMap::new(); // item → (node, line)
    for (idx, f) in graph.fns.iter().enumerate() {
        if !ctx.live(idx) {
            continue;
        }
        for fork in &f.forks {
            if !fork.label_item.is_empty() {
                sites
                    .entry(fork.label_item.as_str())
                    .or_default()
                    .push((idx, fork.line));
            }
        }
    }
    for (item, mut uses) in sites {
        if uses.len() <= 1 {
            continue;
        }
        uses.sort_by(|a, b| {
            let pa = &ctx.tables[graph.file_of[a.0]].path;
            let pb = &ctx.tables[graph.file_of[b.0]].path;
            pa.cmp(pb).then(a.1.cmp(&b.1))
        });
        let total = uses.len();
        let first = uses
            .first()
            .map(|u| ctx.tables[graph.file_of[u.0]].path.clone())
            .unwrap_or_default();
        for &(node, line) in uses.iter().skip(1) {
            let ti = graph.file_of[node];
            ctx.emit(
                findings,
                suppressed,
                "D3x",
                ti,
                line,
                format!(
                    "`rng_labels::{item}` is forked from {total} scopes (first: {first}); \
                     a stream label must have exactly one statically-known fork scope or \
                     the streams collide",
                ),
            );
        }
    }

    // (b) no SimRng stashed in struct fields outside the netsim
    // substrate: field storage lets a stream outlive its fork scope and
    // cross cell boundaries.
    for (ti, table) in ctx.tables.iter().enumerate() {
        if table.module.starts_with("appvsweb_netsim") {
            continue;
        }
        for ty in &table.types {
            if ty.field_types.iter().any(|t| t == "SimRng") {
                ctx.emit(
                    findings,
                    suppressed,
                    "D3x",
                    ti,
                    ty.line,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{classify, sig_view};
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let tables: Vec<FileTable> = files
            .iter()
            .map(|(p, s)| parse_file(p, &sig_view(lex(s)), &[], &BTreeMap::new()))
            .collect();
        let classes: Vec<FileClass> = files.iter().map(|(p, _)| classify(p)).collect();
        let allows: Vec<BTreeMap<u32, Vec<String>>> =
            files.iter().map(|_| BTreeMap::new()).collect();
        let graph = CallGraph::build(&tables);
        let ctx = PassCtx {
            tables: &tables,
            classes: &classes,
            allows: &allows,
            graph: &graph,
        };
        let mut findings = Vec::new();
        let mut suppressed = BTreeMap::new();
        run_workspace_passes(&ctx, &mut findings, &mut suppressed);
        findings
    }

    #[test]
    fn t1_flags_flow_around_mitm_but_not_through_it() {
        let findings = analyze(&[
            (
                "crates/pii/src/profile.rs",
                "pub struct GroundTruth { pub email: String }\n\
                 impl GroundTruth { pub fn synthetic(_s: u64) -> GroundTruth { GroundTruth { email: String::new() } } }",
            ),
            (
                "crates/json/src/lib.rs",
                "pub fn encode_pretty(_v: &str) -> String { String::new() }",
            ),
            (
                "crates/mitm/src/har.rs",
                "pub fn record(t: &str) { appvsweb_json::encode_pretty(t); }",
            ),
            (
                "crates/demo/src/lib.rs",
                "use appvsweb_pii::profile::GroundTruth;\n\
                 pub fn leaky(truth: &GroundTruth) { relay(&truth.email); }\n\
                 fn relay(v: &str) { appvsweb_json::encode_pretty(v); }\n\
                 pub fn clean(truth: &GroundTruth) { appvsweb_mitm::har::record(&truth.email); }",
            ),
        ]);
        let t1: Vec<&Finding> = findings.iter().filter(|f| f.rule == "T1").collect();
        assert_eq!(t1.len(), 1, "{findings:?}");
        assert_eq!(t1[0].path, "crates/demo/src/lib.rs");
        assert!(t1[0].message.contains("leaky"));
        assert!(t1[0].message.contains("encode_pretty"));
    }

    #[test]
    fn r1x_flags_reachable_panics_and_respects_boundaries() {
        let findings = analyze(&[
            (
                "crates/serve/src/runner.rs",
                "pub fn run_job() { helper::step(); helper::guarded(); }",
            ),
            (
                "crates/serve/src/helper.rs",
                "pub fn step() { deep() }\n\
                 fn deep() { let v: Vec<u64> = Vec::new(); v.first().unwrap(); }\n\
                 pub fn guarded() { let _ = std::panic::catch_unwind(|| absorbed()); }\n\
                 fn absorbed() { panic!(\"caught\") }\n\
                 pub fn unreached() { panic!(\"dead\") }",
            ),
        ]);
        let r1x: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R1x").collect();
        assert_eq!(r1x.len(), 1, "{findings:?}");
        assert!(r1x[0].message.contains("deep"));
        assert!(r1x[0].message.contains("unwrap"));
        assert!(r1x[0].message.contains("run_job"));
    }

    #[test]
    fn d3x_flags_duplicate_fork_scopes_and_stashed_rng() {
        let findings = analyze(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Holder { rng: SimRng }\n\
                 pub fn f(r: &mut SimRng) { r.fork(rng_labels::WORLD); }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn g(r: &mut SimRng) { r.fork(rng_labels::WORLD); }",
            ),
            (
                "crates/netsim/src/faults.rs",
                "pub struct Injector { rng: SimRng }",
            ),
        ]);
        let d3x: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D3x").collect();
        assert_eq!(d3x.len(), 2, "{findings:?}");
        assert!(d3x.iter().any(|f| f.message.contains("WORLD")));
        assert!(d3x.iter().any(|f| f.message.contains("Holder")));
        assert!(!d3x.iter().any(|f| f.message.contains("Injector")));
    }
}
