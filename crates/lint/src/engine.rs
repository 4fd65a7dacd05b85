//! The analysis engine: file classification, `#[cfg(test)]` region
//! detection, `lint:allow` annotations, the per-file rule driver, and
//! the cross-file phase (D3 label table, call graph, interprocedural
//! passes).
//!
//! The pipeline has two halves:
//!
//! 1. **Per-file** (embarrassingly parallel, fanned out over
//!    `core::exec::run_indexed`, content-hash cached): lex, mine
//!    annotations, find test regions, run the file-local rules, and
//!    parse the item table ([`crate::parse`]). The result is a
//!    [`FileAnalysis`] — a pure function of one file's bytes.
//! 2. **Cross-file** (sequential, cheap): D3 label uniqueness, the
//!    workspace call graph ([`crate::callgraph`]), and the T1/R1x/D3x
//!    passes ([`crate::taint`]), folded over the ordered per-file
//!    results so worker count can never reorder anything.
//!
//! `lint:allow` annotations are mined from comments and suppress
//! findings on their own line and the line directly below:
//!
//! ```text
//! // lint:allow(R1) slice is exactly 4 bytes by construction
//! ```
//!
//! An annotation must name known rules and carry a non-empty reason —
//! a reason-less or unknown-rule annotation is itself a finding (rule
//! `LINT`). Suppressed sites are tallied per rule in
//! [`Report::suppressed`] so the debt stays visible in the bench meta.

use crate::lexer::{lex, Tok, TokKind};
use crate::parse::FileTable;
use crate::rules;
use crate::taint;
use appvsweb_json::impl_json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One source file handed to the analyzer. `path` is workspace-relative
/// with `/` separators; classification keys off it. Rust files are
/// analyzed; `Cargo.toml` manifests (see [`is_manifest`]) only feed the
/// crate graph that scopes method-call resolution.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// How a file participates in the rule matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: every rule applies.
    Lib,
    /// Benches, example binaries, and the bench/CLI crate: wall-clock
    /// timing and startup panics are part of the job, so `D1`/`R1`/the
    /// reachability passes are waived while determinism rules apply.
    Tool,
    /// Test code: exempt (tests may reuse fork labels, unwrap freely,
    /// and construct adversarial inputs).
    Test,
}

/// Whether a workspace-relative path names a crate manifest.
pub fn is_manifest(path: &str) -> bool {
    path == "Cargo.toml" || path.ends_with("/Cargo.toml")
}

/// Classify a workspace-relative path.
pub fn classify(path: &str) -> FileClass {
    if path.starts_with("tests/") || path.contains("/tests/") || path.ends_with("/tests.rs") {
        FileClass::Test
    } else if path.starts_with("examples/")
        || path.contains("/examples/")
        || path.contains("/benches/")
        || path.contains("/src/bin/")
        || path.starts_with("crates/bench/")
    {
        FileClass::Tool
    } else {
        FileClass::Lib
    }
}

/// The rules a file class is subject to.
pub fn rule_applies(rule: &str, class: FileClass) -> bool {
    match class {
        FileClass::Test => false,
        FileClass::Tool => matches!(rule, "D2" | "D3" | "D3x" | "R2" | "S1"),
        FileClass::Lib => true,
    }
}

/// One violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1`…`S1`, `T1`/`R1x`/`D3x`, or `LINT` for malformed
    /// annotations).
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the match.
    pub line: u64,
    /// Human-readable description.
    pub message: String,
    /// Line-independent identity used for baseline matching: the rule,
    /// the path, and a short window of tokens (or qualified names for
    /// the workspace passes) at the match site.
    pub fingerprint: String,
}

impl_json!(struct Finding { rule, path, line, message, fingerprint });

/// One entry of the D3 fork-label table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelSite {
    /// The label string.
    pub label: String,
    /// File the label is defined or used in.
    pub path: String,
    /// 1-based line.
    pub line: u64,
}

impl_json!(struct LabelSite { label, path, line });

/// Per-rule counter, used for suppressed-site tallies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleCount {
    /// Rule id.
    pub rule: String,
    /// Number of sites.
    pub count: u64,
}

impl_json!(struct RuleCount { rule, count });

/// One valid `lint:allow` annotation, serialized into the cache so the
/// cross-file passes can honor per-line suppressions on warm runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowSpan {
    /// 1-based line the annotation sits on.
    pub line: u64,
    /// Rules it waives.
    pub rules: Vec<String>,
}

impl_json!(struct AllowSpan { line, rules });

/// The full analysis result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Files analyzed.
    pub files: u64,
    /// Total tokens lexed (including whitespace and comments).
    pub tokens: u64,
    /// Valid `lint:allow` annotations seen.
    pub allows: u64,
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// The workspace fork-label table (D3), sorted by label.
    pub labels: Vec<LabelSite>,
    /// Sites a `lint:allow` suppressed, per rule, sorted by rule.
    pub suppressed: Vec<RuleCount>,
}

impl_json!(struct Report { files, tokens, allows, findings, labels, suppressed });

impl Report {
    /// Finding counts per rule, sorted by rule id.
    pub fn counts_by_rule(&self) -> Vec<(String, u64)> {
        let mut map: BTreeMap<&str, u64> = BTreeMap::new();
        for f in &self.findings {
            *map.entry(&f.rule).or_insert(0) += 1;
        }
        map.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// A significant (non-trivia) token plus its source line.
pub struct Sig {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text.
    pub text: String,
    /// 1-based line.
    pub line: u32,
}

/// Indexed view over significant tokens with total accessors, so rule
/// and parser code can look ahead/behind without bounds anxiety.
pub struct SigView {
    /// The significant tokens, in source order.
    pub toks: Vec<Sig>,
}

/// Build the significant-token view of a source text: lex, then strip
/// whitespace and comments.
pub fn sig_view_of(source: &str) -> SigView {
    SigView {
        toks: lex(source)
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .map(|t| Sig {
                kind: t.kind,
                text: t.text,
                line: t.line,
            })
            .collect(),
    }
}

impl SigView {
    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// True when the view holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// Token text at `i`, or `""` out of bounds.
    pub fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    /// Token kind at `i`, or `Whitespace` out of bounds.
    pub fn kind(&self, i: usize) -> TokKind {
        self.toks.get(i).map_or(TokKind::Whitespace, |t| t.kind)
    }

    /// Line of token `i`, or 0 out of bounds.
    pub fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// `text(i - back)` when it exists (saturating, no underflow).
    pub fn before(&self, i: usize, back: usize) -> &str {
        if back > i {
            ""
        } else {
            self.text(i - back)
        }
    }

    /// Token window for baseline fingerprints: up to `back` tokens
    /// behind and `fwd` ahead of `i`, clipped to the match line, so
    /// edits on other lines never churn a baselined site's identity.
    pub fn snippet_on_line(&self, i: usize, back: usize, fwd: usize) -> String {
        let line = self.line(i);
        let mut start = i;
        for _ in 0..back {
            if start > 0 && self.line(start - 1) == line {
                start -= 1;
            } else {
                break;
            }
        }
        let mut parts = Vec::new();
        let mut j = start;
        while j < self.len() && j <= i + fwd && self.line(j) == line {
            parts.push(self.text(j).to_string());
            j += 1;
        }
        parts.join(" ")
    }
}

/// Everything a rule needs about one file.
pub(crate) struct FileCtx<'a> {
    pub path: &'a str,
    pub class: FileClass,
    pub sig: SigView,
    /// Lines covered by a `#[cfg(test)]` / `#[test]` item body.
    pub test_regions: Vec<(u32, u32)>,
    /// Valid allow annotations: line → suppressed rules.
    pub allows: BTreeMap<u32, Vec<String>>,
}

impl FileCtx<'_> {
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// Is `rule` suppressed at `line` (annotation on the line itself or
    /// the line directly above)?
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }
}

/// Per-file rule output: findings, the D3 label table contribution, and
/// the suppressed-site tally.
#[derive(Default)]
pub(crate) struct FileSink {
    pub findings: Vec<Finding>,
    pub labels: Vec<LabelSite>,
    pub suppressed: BTreeMap<String, u64>,
}

/// Rule ids the annotation parser accepts.
pub const RULES: &[&str] = &["D1", "D2", "D3", "D3x", "R1", "R1x", "R2", "S1", "T1"];

/// The complete per-file analysis: everything downstream phases need,
/// serialized into the content-hash cache (see [`crate::cache`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileAnalysis {
    /// [`crate::parse::TABLE_SCHEMA`] at computation time; a mismatch
    /// on load invalidates the entry.
    pub schema: u64,
    /// Workspace-relative path (cache-entry identity check).
    pub path: String,
    /// Findings from the file-local rules.
    pub findings: Vec<Finding>,
    /// D3 label-table contributions.
    pub labels: Vec<LabelSite>,
    /// Suppressed sites per rule (file-local rules only).
    pub suppressed: Vec<RuleCount>,
    /// Valid allow annotations, for the cross-file passes.
    pub allow_spans: Vec<AllowSpan>,
    /// Tokens lexed.
    pub tokens: u64,
    /// Valid allow annotations seen.
    pub allows: u64,
    /// The parsed item table.
    pub table: FileTable,
}

impl_json!(struct FileAnalysis {
    schema, path, findings, labels, suppressed, allow_spans, tokens, allows, table
});

/// Tuning for [`analyze_files_with`].
#[derive(Clone, Debug, Default)]
pub struct AnalysisOptions {
    /// Worker threads for the per-file phase (`0`/`1` = inline). The
    /// report is byte-identical for every worker count.
    pub workers: usize,
    /// Cache directory (`target/lint-cache/`); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

/// Analyze a set of in-memory files with default options (single
/// worker, no cache) — the path unit tests and fuzz harnesses use.
pub fn analyze_files(files: &[SourceFile]) -> Report {
    analyze_files_with(files, &AnalysisOptions::default())
}

/// The whole pipeline: the parallel per-file phase, then the sequential
/// cross-file phase. See the module docs for the determinism argument.
pub fn analyze_files_with(files: &[SourceFile], opts: &AnalysisOptions) -> Report {
    let (manifests, sources): (Vec<&SourceFile>, Vec<&SourceFile>) =
        files.iter().partition(|f| is_manifest(&f.path));
    let analyses: Vec<FileAnalysis> =
        appvsweb_core::exec::run_indexed(&sources, opts.workers.max(1), 4, |_, file| {
            match &opts.cache_dir {
                Some(dir) => {
                    let hash = crate::cache::fnv1a64(file.text.as_bytes());
                    crate::cache::load(dir, &file.path, hash).unwrap_or_else(|| {
                        let analysis = analyze_one(file);
                        crate::cache::store(dir, hash, &analysis);
                        analysis
                    })
                }
                None => analyze_one(file),
            }
        });

    // Sequential fold over the ordered per-file results.
    let mut findings: Vec<Finding> = Vec::new();
    let mut labels: Vec<LabelSite> = Vec::new();
    let mut suppressed: BTreeMap<String, u64> = BTreeMap::new();
    let mut tokens = 0u64;
    let mut allows = 0u64;
    let mut tables: Vec<FileTable> = Vec::with_capacity(analyses.len());
    let mut classes: Vec<FileClass> = Vec::with_capacity(analyses.len());
    let mut allow_maps: Vec<BTreeMap<u32, Vec<String>>> = Vec::with_capacity(analyses.len());
    for analysis in analyses {
        findings.extend(analysis.findings);
        labels.extend(analysis.labels);
        for rc in analysis.suppressed {
            *suppressed.entry(rc.rule).or_insert(0) += rc.count;
        }
        tokens += analysis.tokens;
        allows += analysis.allows;
        classes.push(classify(&analysis.table.path));
        allow_maps.push(
            analysis
                .allow_spans
                .into_iter()
                .map(|s| (s.line as u32, s.rules))
                .collect(),
        );
        tables.push(analysis.table);
    }

    rules::check_label_uniqueness(&labels, &mut findings);

    let crates = crate::callgraph::CrateGraph::from_manifests(&manifests);
    let graph = crate::callgraph::CallGraph::build_with(&tables, &crates);
    let ctx = taint::PassCtx {
        tables: &tables,
        classes: &classes,
        allows: &allow_maps,
        graph: &graph,
    };
    taint::run_workspace_passes(&ctx, &mut findings, &mut suppressed);
    drop(graph);

    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.fingerprint.cmp(&b.fingerprint))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    labels.sort_by(|a, b| a.label.cmp(&b.label).then(a.path.cmp(&b.path)));

    Report {
        files: sources.len() as u64,
        tokens,
        allows,
        findings,
        labels,
        suppressed: suppressed
            .into_iter()
            .map(|(rule, count)| RuleCount { rule, count })
            .collect(),
    }
}

/// The per-file half of the pipeline, a pure function of one file. A
/// manifest is not Rust and analyzes to nothing.
pub fn analyze_one(file: &SourceFile) -> FileAnalysis {
    if is_manifest(&file.path) {
        return FileAnalysis {
            schema: crate::parse::TABLE_SCHEMA,
            path: file.path.clone(),
            findings: Vec::new(),
            labels: Vec::new(),
            suppressed: Vec::new(),
            allow_spans: Vec::new(),
            tokens: 0,
            allows: 0,
            table: FileTable {
                path: file.path.clone(),
                ..FileTable::default()
            },
        };
    }
    let toks = lex(&file.text);
    let tokens = toks.len() as u64;
    let class = classify(&file.path);

    let (allow_map, valid, annotation_findings) = parse_annotations(&file.path, &toks);

    let sig = SigView {
        toks: toks
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .map(|t| Sig {
                kind: t.kind,
                text: t.text,
                line: t.line,
            })
            .collect(),
    };
    let test_regions = find_test_regions(&sig);
    let table = crate::parse::parse_file(&file.path, &sig, &test_regions, &allow_map);
    let ctx = FileCtx {
        path: &file.path,
        class,
        sig,
        test_regions,
        allows: allow_map,
    };
    let mut sink = FileSink::default();
    if class != FileClass::Test {
        sink.findings.extend(annotation_findings);
    }
    rules::run_file_rules(&ctx, &mut sink);

    FileAnalysis {
        schema: crate::parse::TABLE_SCHEMA,
        path: file.path.clone(),
        findings: sink.findings,
        labels: sink.labels,
        suppressed: sink
            .suppressed
            .into_iter()
            .map(|(rule, count)| RuleCount { rule, count })
            .collect(),
        allow_spans: ctx
            .allows
            .iter()
            .map(|(&line, rules)| AllowSpan {
                line: line as u64,
                rules: rules.clone(),
            })
            .collect(),
        tokens,
        allows: valid,
        table,
    }
}

/// Parse inline allow annotations out of comment tokens. Returns
/// the line → rules map, the count of valid annotations, and findings
/// for malformed ones.
fn parse_annotations(path: &str, toks: &[Tok]) -> (BTreeMap<u32, Vec<String>>, u64, Vec<Finding>) {
    let mut map: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut valid = 0u64;
    let mut findings = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(at) = t.text.find("lint:allow(") else {
            continue;
        };
        let rest = &t.text[at + "lint:allow".len()..];
        let parsed = rest.strip_prefix('(').and_then(|r| {
            r.split_once(')').map(|(inside, reason)| {
                let rules: Vec<String> = inside
                    .split([',', ' '])
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().to_string())
                    .collect();
                (rules, reason.trim_end_matches("*/").trim().to_string())
            })
        });
        match parsed {
            Some((rules, reason))
                if !rules.is_empty()
                    && !reason.is_empty()
                    && rules.iter().all(|r| RULES.contains(&r.as_str())) =>
            {
                valid += 1;
                map.entry(t.line).or_default().extend(rules);
            }
            _ => findings.push(Finding {
                rule: "LINT".to_string(),
                path: path.to_string(),
                line: t.line as u64,
                message: "malformed lint:allow — expected `lint:allow(RULE[, RULE]) reason` \
                          with known rules and a non-empty reason"
                    .to_string(),
                fingerprint: format!("LINT|{path}|{}", t.text.trim()),
            }),
        }
    }
    (map, valid, findings)
}

/// Find line spans of items marked `#[test]` / `#[cfg(test)]` (and any
/// attribute whose arguments mention `test`, e.g. `#[cfg(all(test, …))]`).
/// The span runs from the attribute to the item's closing brace; items
/// that end in `;` before any `{` (uses, consts) produce no span.
fn find_test_regions(sig: &SigView) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if sig.text(i) == "#" && sig.text(i + 1) == "[" {
            let start_line = sig.line(i);
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_test = false;
            let mut negated = false;
            while j < sig.len() && depth > 0 {
                match sig.text(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" => is_test = true,
                    "not" => negated = true, // #[cfg(not(test))] is live code
                    _ => {}
                }
                j += 1;
            }
            let is_test = is_test && !negated;
            if is_test {
                if let Some(end_line) = item_body_end(sig, j) {
                    regions.push((start_line, end_line));
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// From token index `j` (just past an attribute), find the line of the
/// closing brace of the next item body; `None` when the item is
/// declaration-only (hits `;` first) or the file ends.
fn item_body_end(sig: &SigView, mut j: usize) -> Option<u32> {
    // Skip stacked attributes.
    while sig.text(j) == "#" && sig.text(j + 1) == "[" {
        j += 2;
        let mut depth = 1usize;
        while j < sig.len() && depth > 0 {
            match sig.text(j) {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    while j < sig.len() {
        match sig.text(j) {
            ";" => return None,
            "{" => {
                let mut depth = 0usize;
                while j < sig.len() {
                    match sig.text(j) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(sig.line(j));
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some(sig.line(sig.len().saturating_sub(1)));
            }
            _ => j += 1,
        }
    }
    None
}

/// Recursively collect every `.rs` file and `Cargo.toml` manifest under
/// `root`, skipping `target` and VCS directories. Paths come back
/// workspace-relative, sorted.
pub fn collect_workspace(root: &std::path::Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&path)?;
                files.push(SourceFile { path: rel, text });
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}
