//! The combined detection pipeline.
//!
//! §3.2, verbatim: "First, we use the automated ReCon tool, which uses
//! machine learning to detect likely PII in network traffic without
//! needing to know the precise PII values. Second, to minimize the risk
//! of ReCon missing PII, we augment its results with PII found via direct
//! string matching on known PII. Finally, we manually verify ReCon
//! predictions and excluded false positives based on our ground-truth
//! information."
//!
//! [`CombinedDetector`] runs those three steps in order. The "manual"
//! verification step is mechanized: a ReCon prediction survives only if
//! the ground truth corroborates it — either the matcher found the same
//! type in the flow, or the value ReCon extracts from key/value context
//! equals a known ground-truth value under some encoding.
//!
//! A flow is read once: [`CombinedDetector::scan`] builds one
//! [`FlowView`] and hands it to the layered matcher, the compiled ReCon
//! ensemble and the verification lookup. [`ReferenceDetector`] keeps the
//! pre-[`FlowView`] pipeline over a whole-identity matcher as the
//! differential oracle.

use crate::cache::CompiledDictionary;
use crate::matcher::PiiFinding;
use crate::profile::GroundTruth;
use crate::recon::ReconClassifier;
use crate::tokenize::FlowView;
use crate::types::PiiType;

/// Which stage(s) of the pipeline produced a detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Source {
    /// Only the ground-truth matcher found it.
    Matcher,
    /// Only ReCon flagged it (and verification corroborated it).
    Recon,
    /// Both stages agree.
    Both,
}

/// One verified PII detection in a flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Detection {
    /// The PII class.
    pub pii_type: PiiType,
    /// Stage attribution.
    pub source: Source,
    /// Matcher-level findings backing this detection (empty for
    /// ReCon-only detections).
    pub findings: Vec<PiiFinding>,
}

/// Report for one scanned flow.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorReport {
    /// Verified detections, sorted by type.
    pub detections: Vec<Detection>,
    /// ReCon predictions rejected during verification (the pipeline's
    /// false-positive count — reported in the ablation benches).
    pub rejected_predictions: Vec<PiiType>,
}

impl DetectorReport {
    /// The distinct verified PII types.
    pub fn types(&self) -> Vec<PiiType> {
        self.detections.iter().map(|d| d.pii_type).collect()
    }

    /// Whether any PII was found.
    pub fn any(&self) -> bool {
        !self.detections.is_empty()
    }

    /// Steps 1 and 3 over the matcher's `findings`: keep the ReCon
    /// `predictions` the matcher corroborates or `value_checks_out`
    /// confirms, reject the rest, and attribute each type's source.
    fn assemble(
        mut findings: Vec<PiiFinding>,
        predictions: Vec<PiiType>,
        value_checks_out: impl Fn(PiiType) -> bool,
    ) -> Self {
        // Group the findings by type (`PiiType`'s order is `ALL`'s), each
        // type's in scan order: a stable sort, so each detection below
        // takes its own run by moving it, cloning nothing.
        findings.sort_by_key(|f| f.pii_type);
        let matched = |t: PiiType| findings.iter().any(|f| f.pii_type == t);

        // Step 3: verification — keep predictions corroborated by ground
        // truth, reject the rest.
        let mut rejected = Vec::new();
        let mut verified_recon = Vec::new();
        for t in predictions {
            if matched(t) {
                verified_recon.push(t); // corroborated by the matcher
            } else if value_checks_out(t) {
                verified_recon.push(t); // value checks out under some encoding
            } else {
                rejected.push(t);
            }
        }

        let mut detections = Vec::new();
        let mut findings = findings.into_iter().peekable();
        for t in PiiType::ALL {
            let mut of_type = Vec::new();
            while let Some(f) = findings.next_if(|f| f.pii_type == t) {
                of_type.push(f);
            }
            let in_match = !of_type.is_empty();
            let in_recon = verified_recon.contains(&t);
            if !in_match && !in_recon {
                continue;
            }
            // (false, false) was filtered out by the `continue` above.
            let source = match (in_match, in_recon) {
                (true, true) => Source::Both,
                (true, false) => Source::Matcher,
                _ => Source::Recon,
            };
            detections.push(Detection {
                pii_type: t,
                source,
                findings: of_type,
            });
        }

        DetectorReport {
            detections,
            rejected_predictions: rejected,
        }
    }
}

/// The three-step detection pipeline.
pub struct CombinedDetector {
    dict: CompiledDictionary,
    recon: Option<ReconClassifier>,
}

impl CombinedDetector {
    /// Build the pipeline for one session identity. Pass `None` for
    /// `recon` to run matcher-only (one arm of the ablation). The
    /// identity's account and device dictionary layers come from the
    /// process-wide [`crate::cache`], so constructions over identities
    /// that share a half share its compilation.
    pub fn new(truth: &GroundTruth, recon: Option<ReconClassifier>) -> Self {
        CombinedDetector {
            dict: crate::cache::compiled(truth),
            recon,
        }
    }

    /// Scan one flow to `domain` whose raw text is `text`.
    pub fn scan(&self, domain: &str, text: &str) -> DetectorReport {
        let view = FlowView::new(text);
        // Step 2 (run first because it is exact): string matching.
        let findings = self.dict.scan(&view);
        // Step 1: ReCon predictions.
        let predictions = match &self.recon {
            Some(clf) => clf.predict_view(domain, &view),
            None => vec![],
        };
        DetectorReport::assemble(findings, predictions, |t| {
            self.kv_value_matches_truth(t, &view)
        })
    }

    /// Does any k/v value under a `t`-hinted key equal a ground-truth
    /// variant of `t`?
    fn kv_value_matches_truth(&self, t: PiiType, view: &FlowView) -> bool {
        view.hinted_kv(t).any(|kv| {
            self.dict
                .variants()
                .any(|(tt, variant)| *tt == t && !variant.is_empty() && kv.value_lower == variant)
        })
    }
}

/// The pre-[`FlowView`] pipeline, kept as the differential oracle for
/// [`CombinedDetector`]: a whole-identity matcher scanning with
/// [`crate::GroundTruthMatcher::scan_reference`], `BTreeSet` ReCon
/// inference, and verification over freshly extracted owned k/v pairs.
pub struct ReferenceDetector {
    matcher: crate::GroundTruthMatcher,
    variants: Vec<(PiiType, String)>,
    recon: Option<ReconClassifier>,
}

impl ReferenceDetector {
    /// Compile `truth` whole, with its variants from a separate
    /// encoding pass.
    // lint:allow(T1) reference variant pass: encodes ground truth to SEARCH for it; nothing leaves the process
    pub fn new(truth: &GroundTruth, recon: Option<ReconClassifier>) -> Self {
        let chains = crate::encode::search_chains();
        let mut variants = Vec::new();
        for (t, v) in truth.values() {
            for chain in &chains {
                variants.push((t, chain.apply(&v).to_ascii_lowercase()));
            }
        }
        ReferenceDetector {
            matcher: crate::GroundTruthMatcher::new(truth),
            variants,
            recon,
        }
    }

    /// Scan one flow the way the pipeline did before [`FlowView`].
    pub fn scan(&self, domain: &str, text: &str) -> DetectorReport {
        let findings = self.matcher.scan_reference(text);
        let predictions = match &self.recon {
            Some(clf) => clf.predict_reference(domain, text),
            None => vec![],
        };
        Self::assemble(findings, predictions, |t| {
            self.kv_value_matches_truth(t, text)
        })
    }

    /// Reference twin of `DetectorReport::assemble`: each detection
    /// clones its type's findings out of the whole list.
    fn assemble(
        findings: Vec<PiiFinding>,
        predictions: Vec<PiiType>,
        value_checks_out: impl Fn(PiiType) -> bool,
    ) -> DetectorReport {
        let mut matched_types: Vec<PiiType> = findings.iter().map(|f| f.pii_type).collect();
        matched_types.sort();
        matched_types.dedup();
        let mut rejected = Vec::new();
        let mut verified_recon = Vec::new();
        for t in predictions {
            if matched_types.contains(&t) || value_checks_out(t) {
                verified_recon.push(t);
            } else {
                rejected.push(t);
            }
        }
        let mut detections = Vec::new();
        for t in PiiType::ALL {
            let source = match (matched_types.contains(&t), verified_recon.contains(&t)) {
                (false, false) => continue,
                (true, true) => Source::Both,
                (true, false) => Source::Matcher,
                (false, true) => Source::Recon,
            };
            detections.push(Detection {
                pii_type: t,
                source,
                findings: findings
                    .iter()
                    .filter(|f| f.pii_type == t)
                    .cloned()
                    .collect(),
            });
        }
        DetectorReport {
            detections,
            rejected_predictions: rejected,
        }
    }

    fn kv_value_matches_truth(&self, t: PiiType, text: &str) -> bool {
        let kv = crate::tokenize::extract_kv(text);
        for (k, v) in kv {
            if !t.key_hints().iter().any(|h| k == *h || k.contains(h)) {
                continue;
            }
            let v = v.to_ascii_lowercase();
            if self
                .variants
                .iter()
                .any(|(tt, variant)| *tt == t && !variant.is_empty() && v == *variant)
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        GroundTruth::synthetic(99).with_device(
            "iPhone 5",
            &[("idfa", "AAAABBBB-CCCC-DDDD-EEEE-FFFF00001111")],
            Some((42.35, -71.06)),
        )
    }

    fn trained_recon() -> ReconClassifier {
        crate::fuzz::classifier()
    }

    #[test]
    fn matcher_only_detection() {
        let t = truth();
        let det = CombinedDetector::new(&t, None);
        let report = det.scan("ads.tracker.com", &format!("uid=1&email={}", t.email));
        assert_eq!(report.types(), vec![PiiType::Email]);
        assert_eq!(report.detections[0].source, Source::Matcher);
        assert!(!report.detections[0].findings.is_empty());
    }

    #[test]
    fn recon_and_matcher_agree() {
        let t = truth();
        let det = CombinedDetector::new(&t, Some(trained_recon()));
        let report = det.scan("ads.tracker.com", &format!("email={}&v=1", t.email));
        assert_eq!(report.detections[0].source, Source::Both);
        assert!(report.rejected_predictions.is_empty());
    }

    #[test]
    fn recon_prediction_verified_by_kv_value() {
        let t = truth();
        let det = CombinedDetector::new(&t, Some(trained_recon()));
        // The flow carries the REAL email but uppercased in a way the
        // structural model recognizes by the "email" key. The matcher's
        // lowercase candidate also finds it, so craft a harder case:
        // matcher disabled by scanning with recon only on structure.
        // Here we verify the kv-verification path directly.
        let upper = format!("email={}", t.email.to_ascii_uppercase());
        assert!(det.kv_value_matches_truth(PiiType::Email, &FlowView::new(&upper)));
        assert!(!det.kv_value_matches_truth(PiiType::Email, &FlowView::new("email=notme@else.org")));
    }

    #[test]
    fn unverifiable_recon_prediction_is_rejected() {
        let t = truth();
        let det = CombinedDetector::new(&t, Some(trained_recon()));
        // Flow matches ReCon's structural signature ("email" token) but
        // carries somebody else's address — the controlled experiment
        // knows it is not our PII, so the prediction must be rejected.
        let report = det.scan("ads.tracker.com", "email=stranger@other.org&v=1");
        assert!(report.detections.is_empty());
        assert_eq!(report.rejected_predictions, vec![PiiType::Email]);
    }

    #[test]
    fn clean_flow_clean_report() {
        let det = CombinedDetector::new(&truth(), Some(trained_recon()));
        let report = det.scan("cdn.static.com", "GET /app.css HTTP/1.1");
        assert!(!report.any());
        assert!(report.rejected_predictions.is_empty());
    }

    #[test]
    fn multiple_types_in_one_flow() {
        let t = truth();
        let det = CombinedDetector::new(&t, None);
        let text = format!(
            "POST /collect email={}&lat=42.35&lon=-71.06&idfa={}",
            t.email, t.device_ids[0].1
        );
        let report = det.scan("x.com", &text);
        let types = report.types();
        assert!(types.contains(&PiiType::Email));
        assert!(types.contains(&PiiType::Location));
        assert!(types.contains(&PiiType::UniqueId));
    }
}

appvsweb_json::impl_json!(
    enum Source {
        Matcher,
        Recon,
        Both,
    }
);
appvsweb_json::impl_json!(struct Detection { pii_type, source, findings });
appvsweb_json::impl_json!(struct DetectorReport { detections, rejected_predictions });
