//! Detector accuracy evaluation.
//!
//! The paper leans on ReCon's reported accuracy and its own manual
//! verification; a reproduction should be able to *measure* its detector
//! instead of asserting it. This module builds a labelled synthetic
//! corpus — flows with known PII planted under known encodings, mixed
//! with PII-free flows and decoy flows carrying someone *else's* PII —
//! and scores any detection function with precision/recall per PII type
//! and per encoding.

use crate::encode::search_chains;
use crate::profile::GroundTruth;
use crate::types::PiiType;
use std::collections::BTreeMap;

/// One labelled corpus flow.
#[derive(Clone, Debug)]
pub struct LabelledFlow {
    /// The flow text.
    pub text: String,
    /// The PII types actually planted (empty = clean flow).
    pub truth: Vec<PiiType>,
    /// The encoding chain used to plant them (label for reporting).
    pub encoding: String,
}

/// Precision/recall counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Planted and detected.
    pub true_positives: u64,
    /// Detected but not planted.
    pub false_positives: u64,
    /// Planted but missed.
    pub false_negatives: u64,
}

impl Counts {
    /// Precision (1 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall (1 when nothing was planted).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Evaluation results.
#[derive(Clone, Debug, Default)]
pub struct Evaluation {
    /// Overall counters.
    pub overall: Counts,
    /// Per PII type.
    pub per_type: BTreeMap<PiiType, Counts>,
    /// Per encoding chain label.
    pub per_encoding: BTreeMap<String, Counts>,
    /// Number of corpus flows scored.
    pub flows: usize,
}

/// Build a labelled corpus for `truth`. For every (plantable type,
/// encoding chain) pair the corpus contains one positive flow; plus
/// `clean_flows` PII-free flows and one decoy flow per type carrying a
/// different identity's values (which a correct detector must NOT flag).
// lint:allow(T1) corpus synthesis deliberately embeds encoded PII in labelled eval flows; no transport involved
pub fn build_corpus(truth: &GroundTruth, clean_flows: usize) -> Vec<LabelledFlow> {
    let mut corpus = Vec::new();
    let decoy = GroundTruth::synthetic(0xDEC0).with_device(
        "Nexus 5",
        &[
            ("imei", "490154203237518"),
            ("ad_id", "ffffeeee-dddd-cccc-bbbb-aaaa99998888"),
        ],
        Some((47.6097, -122.3331)),
    );

    let plant = |t: PiiType, source: &GroundTruth| -> Option<(String, String)> {
        let (key, value) = match t {
            PiiType::Email => ("email", source.email.clone()),
            PiiType::Location => {
                let (lat, _) = source.gps_at_precision(4)?;
                ("lat", lat)
            }
            PiiType::Name => ("firstname", source.first_name.clone()),
            PiiType::PhoneNumber => ("phone", source.phone.clone()),
            PiiType::Username => ("username", source.username.clone()),
            PiiType::Password => ("password", source.password.clone()),
            PiiType::Birthday => ("dob", source.birthday.clone()),
            PiiType::Gender => ("gender", source.gender.clone()),
            PiiType::DeviceInfo => ("device_model", source.device_model.clone()),
            PiiType::UniqueId => {
                let (_, v) = source.device_ids.first()?;
                ("device_id", v.clone())
            }
        };
        Some((key.to_string(), value))
    };

    // Positives: every type under every chain. Hash/encoding chains are
    // skipped for numeric coordinates (nobody hashes a latitude) and for
    // single-character values, mirroring the matcher's design envelope.
    for chain in search_chains() {
        for t in PiiType::ALL {
            let Some((key, value)) = plant(t, truth) else {
                continue;
            };
            if value.len() <= 2 && chain.label() != "plain" {
                continue;
            }
            if t == PiiType::Location
                && !matches!(
                    chain.label().as_str(),
                    "plain" | "percent" | "formpercent" | "lowercase" | "uppercase"
                )
            {
                // Coordinates travel as text at varying precision; the
                // matcher (like the paper's) does not search digest or
                // binary transforms of a single float.
                continue;
            }
            let encoded = chain.apply(&value);
            corpus.push(LabelledFlow {
                text: format!(
                    "POST /v1/collect HTTP/1.1\nHost: sink.example\n\nsdk=eval&{key}={encoded}&seq=1"
                ),
                truth: vec![t],
                encoding: chain.label(),
            });
        }
    }

    // Clean flows.
    for i in 0..clean_flows {
        corpus.push(LabelledFlow {
            text: format!(
                "GET /content/{i}?page={}&session=s{:08x} HTTP/1.1\nHost: api.example",
                i % 7,
                (i as u64).wrapping_mul(0x9e3779b97f4a7c15)
            ),
            truth: vec![],
            encoding: "none".into(),
        });
    }

    // Decoys: somebody else's PII under the same keys.
    for t in PiiType::ALL {
        // Gender/device-model decoys are indistinguishable from the real
        // user's values half the time (a one-letter flag and a shared
        // hardware model are not unique identifiers), so skip them.
        if matches!(t, PiiType::Gender | PiiType::DeviceInfo) {
            continue;
        }
        if let Some((key, value)) = plant(t, &decoy) {
            corpus.push(LabelledFlow {
                text: format!(
                    "POST /v1/collect HTTP/1.1\nHost: sink.example\n\nsdk=eval&{key}={value}"
                ),
                truth: vec![],
                encoding: "decoy".into(),
            });
        }
    }

    corpus
}

/// Score `detect` against a corpus. `detect` returns the PII types it
/// finds in a flow text.
pub fn evaluate<F>(corpus: &[LabelledFlow], mut detect: F) -> Evaluation
where
    F: FnMut(&str) -> Vec<PiiType>,
{
    let mut eval = Evaluation {
        flows: corpus.len(),
        ..Default::default()
    };
    for flow in corpus {
        let predicted = detect(&flow.text);
        for t in PiiType::ALL {
            let planted = flow.truth.contains(&t);
            let found = predicted.contains(&t);
            let (overall, per_type, per_enc) = (
                &mut eval.overall,
                eval.per_type.entry(t).or_default(),
                eval.per_encoding.entry(flow.encoding.clone()).or_default(),
            );
            match (planted, found) {
                (true, true) => {
                    overall.true_positives += 1;
                    per_type.true_positives += 1;
                    per_enc.true_positives += 1;
                }
                (true, false) => {
                    overall.false_negatives += 1;
                    per_type.false_negatives += 1;
                    per_enc.false_negatives += 1;
                }
                (false, true) => {
                    overall.false_positives += 1;
                    per_type.false_positives += 1;
                    per_enc.false_positives += 1;
                }
                (false, false) => {}
            }
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::GroundTruthMatcher;

    fn truth() -> GroundTruth {
        GroundTruth::synthetic(77).with_device(
            "iPhone 5",
            &[("idfa", "12345678-ABCD-EF01-2345-6789ABCDEF01")],
            Some((42.35, -71.06)),
        )
    }

    #[test]
    fn corpus_has_positives_cleans_and_decoys() {
        let corpus = build_corpus(&truth(), 25);
        let positives = corpus.iter().filter(|f| !f.truth.is_empty()).count();
        let cleans = corpus.iter().filter(|f| f.encoding == "none").count();
        let decoys = corpus.iter().filter(|f| f.encoding == "decoy").count();
        assert!(positives > 100, "got {positives}");
        assert_eq!(cleans, 25);
        assert_eq!(decoys, 8);
    }

    #[test]
    fn matcher_scores_high_recall_and_precision() {
        let t = truth();
        let corpus = build_corpus(&t, 50);
        let matcher = GroundTruthMatcher::new(&t);
        let eval = evaluate(&corpus, |text| matcher.types_in(text));
        assert!(
            eval.overall.recall() >= 0.95,
            "matcher recall {:.3} (fn={})",
            eval.overall.recall(),
            eval.overall.false_negatives
        );
        assert!(
            eval.overall.precision() >= 0.95,
            "matcher precision {:.3} (fp={})",
            eval.overall.precision(),
            eval.overall.false_positives
        );
    }

    #[test]
    fn per_encoding_breakdown_covers_hashes() {
        let t = truth();
        let corpus = build_corpus(&t, 0);
        let matcher = GroundTruthMatcher::new(&t);
        let eval = evaluate(&corpus, |text| matcher.types_in(text));
        let md5 = eval
            .per_encoding
            .get("lowercase>md5")
            .expect("md5 chain present");
        assert_eq!(md5.false_negatives, 0, "hashed identifiers must be caught");
    }

    /// The setup EXPERIMENTS.md's "Detector accuracy" section quotes:
    /// both detectors score every planted flow and flag no clean or
    /// decoy flow.
    #[test]
    fn paper_setup_scores_perfectly_for_both_detectors() {
        let truth = GroundTruth::synthetic(2016).with_device(
            "Nexus 5",
            &[
                ("imei", "354436069633711"),
                ("mac", "02:00:4c:4f:4f:50"),
                ("ad_id", "9d2a1f6c-0b51-4ef2-a1b0-cc9e34ad8f01"),
            ],
            Some((42.361145, -71.057083)),
        );
        let corpus = build_corpus(&truth, 200);
        let positives = corpus.iter().filter(|f| !f.truth.is_empty()).count();
        let cleans = corpus.iter().filter(|f| f.encoding == "none").count();
        let decoys = corpus.iter().filter(|f| f.encoding == "decoy").count();
        assert_eq!(
            (corpus.len(), positives, cleans, decoys),
            (382, 174, 200, 8)
        );

        let matcher = GroundTruthMatcher::new(&truth);
        let combined = crate::detector::CombinedDetector::new(&truth, None);
        let perfect = Counts {
            true_positives: 174,
            false_positives: 0,
            false_negatives: 0,
        };
        let by_matcher = evaluate(&corpus, |text| matcher.types_in(text));
        assert_eq!(by_matcher.overall, perfect, "ground-truth matcher");
        let by_combined = evaluate(&corpus, |text| combined.scan("sink.example", text).types());
        assert_eq!(by_combined.overall, perfect, "combined detector");
    }

    #[test]
    fn blind_detector_scores_zero_recall() {
        let corpus = build_corpus(&truth(), 10);
        let eval = evaluate(&corpus, |_| vec![]);
        assert_eq!(eval.overall.true_positives, 0);
        assert_eq!(eval.overall.recall(), 0.0);
        assert_eq!(
            eval.overall.precision(),
            1.0,
            "no predictions = vacuous precision"
        );
    }

    #[test]
    fn always_fire_detector_scores_low_precision() {
        let corpus = build_corpus(&truth(), 50);
        let eval = evaluate(&corpus, |_| PiiType::ALL.to_vec());
        assert_eq!(eval.overall.recall(), 1.0);
        assert!(eval.overall.precision() < 0.2);
        assert!(eval.overall.f1() < 0.4);
    }

    #[test]
    fn counts_math() {
        let c = Counts {
            true_positives: 8,
            false_positives: 2,
            false_negatives: 2,
        };
        assert!((c.precision() - 0.8).abs() < 1e-9);
        assert!((c.recall() - 0.8).abs() < 1e-9);
        assert!((c.f1() - 0.8).abs() < 1e-9);
        assert_eq!(Counts::default().precision(), 1.0);
        assert_eq!(Counts::default().recall(), 1.0);
    }
}

appvsweb_json::impl_json!(struct Counts { true_positives, false_positives, false_negatives });
appvsweb_json::impl_json!(struct Evaluation { overall, per_type, per_encoding, flows });
