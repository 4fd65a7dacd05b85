//! # appvsweb-pii
//!
//! PII ground truth, encodings, and leak *detection* for the `appvsweb`
//! reproduction of *"Should You Use the App for That?"* (IMC 2016).
//!
//! The paper identifies PII in network traffic with a three-step
//! procedure (§3.2 "Identifying PII"):
//!
//! 1. the **ReCon** machine-learning detector (bag-of-words features,
//!    per-destination decision-tree classifiers) flags flows likely to
//!    carry PII without knowing the values;
//! 2. **direct string matching** on the known ground-truth PII catches
//!    what the classifier misses — including values hidden under common
//!    encodings (percent, base64, hex, MD5/SHA hashes, case folding,
//!    truncated GPS precision);
//! 3. **manual verification** removes false positives using the
//!    ground-truth information.
//!
//! This crate implements all three from scratch:
//!
//! * [`types`] — the PII taxonomy of Table 1 (B D E G L N P# U PW UID)
//! * [`profile`] — deterministic test-account + device ground truth
//! * [`hash`] — MD5 / SHA-1 / SHA-256 (hashed identifiers are a standard
//!   tracker obfuscation)
//! * [`encode`] — the encoder zoo and composable encoding chains
//! * [`tokenize`] — flow tokenization and key/value extraction
//! * [`aho`] — an Aho–Corasick multi-pattern automaton (the matcher's
//!   single-pass scanning engine)
//! * [`matcher`] — decoder-search ground-truth matching
//! * [`recon`] — the from-scratch decision-tree learner and per-domain
//!   classifier ensemble
//! * [`detector`] — the combined pipeline with verification, exactly the
//!   paper's three steps in order
//! * [`eval`] — a labelled-corpus harness measuring detector
//!   precision/recall per PII type and per encoding

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aho;
pub mod cache;
pub mod detector;
pub mod encode;
pub mod eval;
pub mod fuzz;
pub mod hash;
pub mod matcher;
pub mod profile;
pub mod recon;
pub mod tokenize;
pub mod types;

pub use cache::{CacheStats, CompiledDictionary};
pub use detector::{CombinedDetector, Detection, DetectorReport};
pub use encode::Encoding;
pub use matcher::{GroundTruthMatcher, PiiFinding};
pub use profile::{GroundTruth, Half};
pub use tokenize::FlowView;
pub use types::PiiType;
