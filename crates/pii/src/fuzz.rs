//! Fuzz entry point for the ReCon-style flow tokenizer.
//!
//! The tokenizer and key/value extractor see raw intercepted flow text —
//! the single most attacker-influenced input in the pipeline — so their
//! contract under fuzzing is strict totality plus the size invariants
//! the feature extractor depends on (token length caps keep base64
//! blobs out of the vocabulary; key/value caps bound feature width).
//!
//! The target also holds the one-pass detection front end to the owned
//! forms: a [`FlowView`]'s k/v pairs equal [`extract_kv`] and its tokens
//! equal [`token_set`] on arbitrary bytes, and compiled ReCon inference
//! equals the reference inference under [`classifier`].

use crate::recon::{ReconClassifier, ReconTrainer, TrainingFlow, TreeConfig};
use crate::tokenize::{extract_kv, token_set, tokenize, FlowView};
use crate::types::PiiType;
use std::collections::BTreeSet;

/// The small classifier pii's unit tests train: 16 flows to
/// `ads.tracker.com`, half of them carrying an `email=` pair labelled
/// [`PiiType::Email`].
pub fn classifier() -> ReconClassifier {
    let mut trainer = ReconTrainer::new();
    for i in 0..16 {
        let has = i % 2 == 0;
        trainer.add(TrainingFlow {
            domain: "ads.tracker.com".into(),
            text: if has {
                format!("email=user{i}@x.com&v={i}")
            } else {
                format!("v={i}&page=home")
            },
            labels: if has {
                [PiiType::Email].into_iter().collect()
            } else {
                BTreeSet::new()
            },
        });
    }
    trainer.train(&TreeConfig::default())
}

/// Run the tokenizer target on raw fuzz bytes.
pub fn run(data: &[u8]) {
    let text = String::from_utf8_lossy(data);

    let view = FlowView::new(&text);
    let view_kv: Vec<(String, String)> = view
        .kv()
        .map(|kv| (kv.key.to_string(), kv.value.to_string()))
        .collect();
    assert_eq!(view_kv, extract_kv(&text), "FlowView k/v spans diverged");
    assert!(
        view.kv()
            .all(|kv| kv.value_lower == kv.value.to_ascii_lowercase()),
        "FlowView lowercased a value wrongly"
    );
    let mut view_tokens: Vec<&str> = view.tokens().collect();
    view_tokens.sort_unstable();
    view_tokens.dedup();
    assert_eq!(
        view_tokens,
        token_set(&text),
        "FlowView token spans diverged"
    );
    let clf = classifier();
    for domain in ["ads.tracker.com", "unseen.example"] {
        assert_eq!(
            clf.predict_view(domain, &view),
            clf.predict_reference(domain, &text),
            "compiled ReCon inference diverged for {domain}"
        );
    }

    let tokens = tokenize(&text);
    for t in &tokens {
        assert!(!t.is_empty(), "tokenize emitted an empty token");
        assert!(t.len() <= 40, "token over the 40-byte cap: {t:?}");
        assert!(
            !t.chars().any(|c| c.is_ascii_uppercase()),
            "token not lowercased: {t:?}"
        );
    }

    let set = token_set(&text);
    assert!(
        set.windows(2).all(|w| matches!(w, [a, b] if a < b)),
        "token_set must be sorted and deduplicated"
    );
    assert!(set.len() <= tokens.len(), "token_set grew the bag");

    for (k, v) in extract_kv(&text) {
        assert!(!k.is_empty(), "extract_kv emitted an empty key");
        assert!(k.len() <= 40, "key over the 40-byte cap: {k:?}");
        assert!(v.len() <= 256, "value over the 256-byte cap");
        assert!(
            !k.chars().any(|c| c.is_ascii_uppercase()),
            "key not lowercased: {k:?}"
        );
    }
}

/// Dictionary: the delimiters and key/value shapes the extractor pivots
/// on, plus HTTP request-line anchors.
pub const DICT: &[&[u8]] = &[
    b"=",
    b"&",
    b";",
    b"?",
    b"\"",
    b":",
    b"\"k\":",
    b"\"k\":\"v\"",
    b"email=",
    b"lat=",
    b"uid=",
    b" HTTP/1.1",
    b"Cookie: ",
    b"\r\n\r\n",
    b"%40",
    b"{\"",
    b"\xf0\x9f\x92\xa9",
];

/// Seeds: one of each flow shape the extractor recognizes.
pub const SEEDS: &[&[u8]] = &[
    b"GET /v1/track?Email=a@b.com&lat=42.36 HTTP/1.1",
    b"POST /collect HTTP/1.1\r\nHost: t.example\r\nCookie: sid=99; _ga=GA1.2\r\n\r\nemail=jane%40x.com&pw=s3cret",
    b"{\"email\":\"jane@x.com\",\"age\":27,\"device\":{\"model\":\"Nexus 5\"}}",
];
