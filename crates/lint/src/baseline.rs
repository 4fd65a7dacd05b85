//! Baseline bookkeeping: CI fails on *new* findings while a committed
//! `lint.baseline.json` lets the existing debt burn down in reviewable
//! steps instead of one giant cleanup.
//!
//! Entries match findings by fingerprint (rule + path + a token window
//! at the site, or qualified names for the interprocedural passes), not
//! by line number, so unrelated edits above a baselined site don't
//! churn the file. Matching is multiset-aware: two identical sites need
//! two entries.
//!
//! The on-disk schema (**v2**) groups entries by rule so a review can
//! see the per-rule debt at a glance and diffs stay local to the rule
//! that changed:
//!
//! ```json
//! {
//!   "version": 2,
//!   "rules": [
//!     { "rule": "R1",
//!       "entries": [ { "path": "…", "fingerprint": "…", "message": "…" } ] }
//!   ]
//! }
//! ```
//!
//! [`Baseline::from_json_text`] reads it and [`Baseline::to_json_text`]
//! writes it.

use crate::engine::{Finding, Report};
use appvsweb_json::{encode_pretty, impl_json, parse, FromJson, JsonError};
use std::collections::BTreeMap;

/// One accepted (baselined) finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Fingerprint copied from the accepted finding.
    pub fingerprint: String,
    /// The finding message at the time it was accepted (informational).
    pub message: String,
}

impl_json!(struct BaselineEntry { rule, path, fingerprint, message });

/// v2 wire form: one entry, rule implied by the enclosing group.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EntryV2 {
    path: String,
    fingerprint: String,
    message: String,
}

impl_json!(struct EntryV2 { path, fingerprint, message });

/// v2 wire form: all accepted findings of one rule.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RuleGroupV2 {
    rule: String,
    entries: Vec<EntryV2>,
}

impl_json!(struct RuleGroupV2 { rule, entries });

/// v2 wire form: the document.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct BaselineV2 {
    version: u64,
    rules: Vec<RuleGroupV2>,
}

impl_json!(struct BaselineV2 { version, rules });

/// The in-memory baseline: a flat multiset of accepted findings,
/// independent of which wire schema it was read from.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Baseline {
    /// Accepted findings.
    pub findings: Vec<BaselineEntry>,
}

/// Result of diffing a report against a baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Findings not covered by the baseline — these fail CI.
    pub new: Vec<Finding>,
    /// Baseline entries that no longer match any finding — stale debt
    /// that `--fix-baseline` will drop.
    pub stale: Vec<BaselineEntry>,
}

impl Baseline {
    /// Build a baseline that accepts every finding of `report`.
    pub fn from_report(report: &Report) -> Baseline {
        Baseline {
            findings: report
                .findings
                .iter()
                .map(|f| BaselineEntry {
                    rule: f.rule.clone(),
                    path: f.path.clone(),
                    fingerprint: f.fingerprint.clone(),
                    message: f.message.clone(),
                })
                .collect(),
        }
    }

    /// Parse a baseline document in the v2 grouped schema.
    pub fn from_json_text(text: &str) -> Result<Baseline, JsonError> {
        let doc = BaselineV2::from_json(&parse(text)?)?;
        if doc.version != 2 {
            return Err(JsonError::schema(format!(
                "unsupported baseline version {}",
                doc.version
            )));
        }
        Ok(Baseline {
            findings: doc
                .rules
                .into_iter()
                .flat_map(|group| {
                    let rule = group.rule;
                    group
                        .entries
                        .into_iter()
                        .map(move |e| BaselineEntry {
                            rule: rule.clone(),
                            path: e.path,
                            fingerprint: e.fingerprint,
                            message: e.message,
                        })
                        .collect::<Vec<_>>()
                })
                .collect(),
        })
    }

    /// Serialize for committing — always the v2 grouped schema, with
    /// rule groups sorted by rule and entries by (path, fingerprint) so
    /// regeneration is deterministic.
    pub fn to_json_text(&self) -> String {
        let mut groups: BTreeMap<&str, Vec<EntryV2>> = BTreeMap::new();
        for entry in &self.findings {
            groups.entry(&entry.rule).or_default().push(EntryV2 {
                path: entry.path.clone(),
                fingerprint: entry.fingerprint.clone(),
                message: entry.message.clone(),
            });
        }
        let doc = BaselineV2 {
            version: 2,
            rules: groups
                .into_iter()
                .map(|(rule, mut entries)| {
                    entries.sort_by(|a, b| {
                        a.path.cmp(&b.path).then(a.fingerprint.cmp(&b.fingerprint))
                    });
                    RuleGroupV2 {
                        rule: rule.to_string(),
                        entries,
                    }
                })
                .collect(),
        };
        encode_pretty(&doc) + "\n"
    }

    /// Multiset-diff `report` against this baseline.
    pub fn diff(&self, report: &Report) -> BaselineDiff {
        let mut budget: BTreeMap<&str, u64> = BTreeMap::new();
        for entry in &self.findings {
            *budget.entry(entry.fingerprint.as_str()).or_insert(0) += 1;
        }
        let mut diff = BaselineDiff::default();
        for finding in &report.findings {
            match budget.get_mut(finding.fingerprint.as_str()) {
                Some(n) if *n > 0 => *n -= 1,
                _ => diff.new.push(finding.clone()),
            }
        }
        // Whatever budget is left over no longer matches anything.
        let mut remaining = budget;
        for entry in &self.findings {
            if let Some(n) = remaining.get_mut(entry.fingerprint.as_str()) {
                if *n > 0 {
                    *n -= 1;
                    diff.stale.push(entry.clone());
                }
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rule: &str, path: &str, fp: &str) -> BaselineEntry {
        BaselineEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            fingerprint: fp.to_string(),
            message: "m".to_string(),
        }
    }

    #[test]
    fn v2_roundtrip_groups_by_rule_sorted() {
        let baseline = Baseline {
            findings: vec![
                entry("T1", "b.rs", "T1|b.rs|y"),
                entry("R1", "a.rs", "R1|a.rs|x"),
                entry("R1", "a.rs", "R1|a.rs|w"),
                entry("R1", "a.rs", "R1|a.rs|x"),
            ],
        };
        let text = baseline.to_json_text();
        assert!(text.contains("\"version\": 2"));
        let reread = Baseline::from_json_text(&text).unwrap();
        // Reading a v2 document yields entries rule-grouped and sorted,
        // and the duplicate survives (the baseline is a multiset).
        assert_eq!(
            reread.findings,
            vec![
                entry("R1", "a.rs", "R1|a.rs|w"),
                entry("R1", "a.rs", "R1|a.rs|x"),
                entry("R1", "a.rs", "R1|a.rs|x"),
                entry("T1", "b.rs", "T1|b.rs|y"),
            ]
        );
        // Regeneration is a fixed point.
        assert_eq!(reread.to_json_text(), text);
    }
}
