//! The interprocedural pass over the workspace call graph: T1 PII taint.
//!
//! The paper's leak analysis turned on our own code: a function that
//! *handles PII* (its signature mentions a type defined in
//! `pii::types`/`pii::profile`, or it directly calls a `pii::profile`
//! constructor) must not reach a serialization, byte-encoding, or socket
//! sink except through the audited `mitm` recording path. Traversal
//! stops at other PII handlers (each owns its own flow) and at `mitm`;
//! one finding per handler, carrying the shortest offending path.
//!
//! The pass is a deliberately *static over-approximation* whose
//! soundness caveats are documented in DESIGN §10; each finding can be
//! waived with a reviewed `lint:allow(T1)` annotation at the reported
//! line, exactly like the file-local rules.

use crate::callgraph::CallGraph;
use crate::engine::{rule_applies, AllowMap, FileClass, FileSink};
use crate::parse::FileTable;
use std::collections::{BTreeSet, VecDeque};

/// Where PII model types and their constructors live.
const PII_MODULES: &[&str] = &["appvsweb_pii::types", "appvsweb_pii::profile"];
/// Functions originating PII values: the profile constructors/accessors.
const PII_SOURCE_PREFIX: &str = "appvsweb_pii::profile::";
/// The audited recording path: flows through here are the measurement.
const AUDITED_PREFIX: &str = "appvsweb_mitm::";
/// Crates whose internals are the serializer itself, not a flow.
const SINK_HOME_PREFIX: &str = "appvsweb_json::";

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

/// Everything the T1 pass needs, assembled by the engine.
pub(crate) struct PassCtx<'a> {
    /// Per-file item tables, sorted by path.
    pub tables: &'a [FileTable],
    /// File class per table (parallel).
    pub classes: &'a [FileClass],
    /// Valid `lint:allow` annotations per table (parallel).
    pub allows: &'a [AllowMap],
    /// The workspace call graph over `tables`.
    pub graph: &'a CallGraph<'a>,
}

impl PassCtx<'_> {
    /// Emit into table `ti`'s sink unless its class is exempt or an
    /// annotation waives the site (see [`FileSink::emit`]).
    fn emit(&self, sinks: &mut [FileSink], ti: usize, line: u64, message: String) {
        let class = self.classes.get(ti).copied().unwrap_or(FileClass::Lib);
        if !rule_applies("T1", class) {
            return;
        }
        if let (Some(sink), Some(allows), Some(table)) =
            (sinks.get_mut(ti), self.allows.get(ti), self.tables.get(ti))
        {
            sink.emit(allows, &table.path, "T1", line, message);
        }
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

/// Run the T1 pass, emitting each finding into the sink of the file
/// that holds the carrier (unsorted; the engine sorts the merged set).
pub(crate) fn pass_t1_pii_taint(ctx: &PassCtx<'_>, sinks: &mut [FileSink]) {
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
            sinks,
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

#[cfg(test)]
mod tests {
    use crate::engine::{analyze_files, Finding, SourceFile};

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile {
                path: p.to_string(),
                text: s.to_string(),
            })
            .collect();
        analyze_files(&files).findings
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
}
