//! The analysis engine: file classification, `#[cfg(test)]` region
//! detection, `lint:allow` annotations, the per-file rule driver, and
//! the cross-file phase (D3 label table and fork sites, call graph, T1
//! taint pass).
//!
//! The pipeline is one sequential pass in two halves:
//!
//! 1. **Per-file**: lex, mine annotations, find test regions, parse the
//!    item table ([`crate::parse`]), and run the file-local rules. The
//!    result is a [`FileAnalysis`] — a pure function of one file's
//!    bytes.
//! 2. **Cross-file**: D3 label uniqueness and single fork sites, the
//!    workspace call graph ([`crate::callgraph`]), and the T1 pass
//!    ([`crate::taint`]), folded over the per-file results in input
//!    order (`collect_workspace` sorts by path).
//!
//! The report is therefore a pure function of the files handed in:
//! nothing is read from or written to disk between runs.
//!
//! `lint:allow` annotations are mined from plain (non-doc) comments and
//! suppress findings on their own line and the line directly below:
//!
//! ```text
//! // lint:allow(R1) slice is exactly 4 bytes by construction
//! ```
//!
//! An annotation must name known rules, carry a non-empty reason, and
//! waive at least one site — a reason-less, unknown-rule or unused
//! annotation is itself a finding (rule `LINT`). Suppressed sites are
//! tallied per rule in [`Report::suppressed`] so the debt stays visible
//! in the bench meta.

use crate::callgraph::CallGraph;
use crate::lexer::{lex, Tok, TokKind};
use crate::parse::FileTable;
use crate::rules;
use crate::taint;
use appvsweb_json::impl_json;
use std::collections::{BTreeMap, BTreeSet};

/// One Rust source file handed to the analyzer. `path` is
/// workspace-relative with `/` separators; classification keys off it.
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
    /// timing and startup panics are part of the job, so `D1`/`R1`/`T1`
    /// are waived while determinism rules apply.
    Tool,
    /// Test code: exempt (tests may reuse fork labels, unwrap freely,
    /// and construct adversarial inputs).
    Test,
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
        FileClass::Tool => matches!(rule, "D2" | "D3" | "R2" | "S1"),
        FileClass::Lib => true,
    }
}

/// One violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1`…`S1`, `T1`, or `LINT` for a malformed or unused
    /// annotation).
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the match.
    pub line: u64,
    /// Human-readable description.
    pub message: String,
}

impl_json!(struct Finding { rule, path, line, message });

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

/// Build the significant-token view of a lexed file: strip whitespace
/// and comments.
pub(crate) fn sig_view(toks: Vec<Tok>) -> SigView {
    SigView {
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
}

/// Valid allow annotations of one file: line → waived rules.
pub type AllowMap = BTreeMap<u32, Vec<String>>;

/// Everything a rule needs about one file.
pub(crate) struct FileCtx<'a> {
    pub path: &'a str,
    pub class: FileClass,
    pub sig: SigView,
    /// Lines covered by a `#[cfg(test)]` / `#[test]` item body.
    pub test_regions: Vec<(u32, u32)>,
    /// Valid allow annotations.
    pub allows: AllowMap,
    /// The parsed item table.
    pub table: &'a FileTable,
}

impl FileCtx<'_> {
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }
}

/// One file's rule output: findings, its D3 label-table and fork-site
/// contributions, and the waiver bookkeeping. The cross-file checks
/// emit into the sink of the file a finding lands in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct FileSink {
    /// Findings not waived by an annotation.
    pub findings: Vec<Finding>,
    /// D3 label-table contributions.
    pub labels: Vec<LabelSite>,
    /// `rng_labels` items forked in the file: (item, line of the fork).
    pub forks: Vec<(String, u64)>,
    /// Sites an annotation waived, per rule.
    pub suppressed: BTreeMap<String, u64>,
    /// Lines of the annotations that waived at least one site.
    pub used: BTreeSet<u32>,
}

impl FileSink {
    /// Record a finding of `rule` at `line` of `path`, unless an
    /// annotation in `allows` — on the line itself or the line directly
    /// above — waives it: then the site is tallied and the annotation
    /// marked used.
    pub(crate) fn emit(
        &mut self,
        allows: &AllowMap,
        path: &str,
        rule: &str,
        line: u64,
        message: String,
    ) {
        let line32 = line as u32;
        let waiver = [line32, line32.saturating_sub(1)].into_iter().find(|l| {
            allows
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        });
        if let Some(at) = waiver {
            *self.suppressed.entry(rule.to_string()).or_insert(0) += 1;
            self.used.insert(at);
            return;
        }
        self.findings.push(Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message,
        });
    }
}

/// Rule ids the annotation parser accepts.
pub const RULES: &[&str] = &["D1", "D2", "D3", "R1", "R2", "S1", "T1"];

/// The complete per-file analysis: everything the cross-file phase
/// needs about one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileAnalysis {
    /// Output of the file-local rules.
    pub(crate) sink: FileSink,
    /// Valid allow annotations, for the cross-file checks.
    pub allow_lines: AllowMap,
    /// Tokens lexed.
    pub tokens: u64,
    /// Valid allow annotations seen.
    pub allows: u64,
    /// The parsed item table.
    pub table: FileTable,
}

/// The whole pipeline: the per-file phase over every file, then the
/// cross-file phase, then the check that every annotation waived a site.
pub fn analyze_files(files: &[SourceFile]) -> Report {
    let mut tokens = 0u64;
    let mut allows = 0u64;
    let mut sinks: Vec<FileSink> = Vec::with_capacity(files.len());
    let mut tables: Vec<FileTable> = Vec::with_capacity(files.len());
    let mut classes: Vec<FileClass> = Vec::with_capacity(files.len());
    let mut allow_maps: Vec<AllowMap> = Vec::with_capacity(files.len());
    for file in files {
        let analysis = analyze_one(file);
        tokens += analysis.tokens;
        allows += analysis.allows;
        classes.push(classify(&file.path));
        allow_maps.push(analysis.allow_lines);
        tables.push(analysis.table);
        sinks.push(analysis.sink);
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut labels: Vec<LabelSite> = sinks
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.labels))
        .collect();
    rules::check_label_uniqueness(&labels, &mut findings);
    rules::check_fork_sites(files, &allow_maps, &mut sinks);

    let graph = CallGraph::build(&tables);
    let ctx = taint::PassCtx {
        tables: &tables,
        classes: &classes,
        allows: &allow_maps,
        graph: &graph,
    };
    taint::pass_t1_pii_taint(&ctx, &mut sinks);
    drop(graph);

    let mut suppressed: BTreeMap<String, u64> = BTreeMap::new();
    for (ti, sink) in sinks.into_iter().enumerate() {
        if classes[ti] != FileClass::Test {
            for line in allow_maps[ti].keys().filter(|l| !sink.used.contains(l)) {
                findings.push(Finding {
                    rule: "LINT".to_string(),
                    path: files[ti].path.clone(),
                    line: *line as u64,
                    message: "unused lint:allow — no site of the named rules is waived here; \
                              delete the annotation"
                        .to_string(),
                });
            }
        }
        findings.extend(sink.findings);
        for (rule, count) in sink.suppressed {
            *suppressed.entry(rule).or_insert(0) += count;
        }
    }

    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.message.cmp(&b.message))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    labels.sort_by(|a, b| a.label.cmp(&b.label).then(a.path.cmp(&b.path)));

    Report {
        files: files.len() as u64,
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

/// The per-file half of the pipeline, a pure function of one file.
pub fn analyze_one(file: &SourceFile) -> FileAnalysis {
    let toks = lex(&file.text);
    let tokens = toks.len() as u64;
    let class = classify(&file.path);

    let (allow_map, valid, annotation_findings) = parse_annotations(&file.path, &toks);

    let sig = sig_view(toks);
    let test_regions = find_test_regions(&sig);
    let table = crate::parse::parse_file(&file.path, &sig, &test_regions);
    let ctx = FileCtx {
        path: &file.path,
        class,
        sig,
        test_regions,
        allows: allow_map,
        table: &table,
    };
    let mut sink = FileSink::default();
    if class != FileClass::Test {
        sink.findings.extend(annotation_findings);
    }
    rules::run_file_rules(&ctx, &mut sink);
    let allow_lines = ctx.allows;

    FileAnalysis {
        sink,
        allow_lines,
        tokens,
        allows: valid,
        table,
    }
}

/// Doc comments (`///`, `//!`, `/** */`, `/*! */`) document the code,
/// so a `lint:allow` quoted in one is an example, not a waiver.
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!")
}

/// Parse inline allow annotations out of plain comment tokens. Returns
/// the line → rules map, the count of valid annotations, and findings
/// for malformed ones.
fn parse_annotations(path: &str, toks: &[Tok]) -> (AllowMap, u64, Vec<Finding>) {
    let mut map = AllowMap::new();
    let mut valid = 0u64;
    let mut findings = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
            || is_doc_comment(&t.text)
        {
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

/// Recursively collect every `.rs` file under `root`, skipping `target`
/// and VCS directories. Paths come back workspace-relative, sorted.
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
            } else if name.ends_with(".rs") {
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
