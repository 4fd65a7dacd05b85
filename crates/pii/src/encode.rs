//! The encoder zoo.
//!
//! §3.2: "knowing the PII in advance is not a catch-all for detecting it
//! in network traffic. GPS locations are sent with arbitrary precision,
//! unique identifiers are formatted inconsistently…". Services and
//! tracker SDKs transform values before transmission; the matcher must
//! search for every transform of every ground-truth value. [`Encoding`]
//! enumerates the transforms observed in mobile/web traffic, and
//! [`Encoding::apply`] produces the on-wire representation.

use crate::hash;
use appvsweb_httpsim::codec;

/// A single value transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Encoding {
    /// Verbatim.
    Plain,
    /// Lowercased (e-mail canonicalization before hashing, etc.).
    Lowercase,
    /// Uppercased (IDFA convention on iOS).
    Uppercase,
    /// Percent-encoded.
    Percent,
    /// Form-style percent encoding: like [`Encoding::Percent`] but with
    /// spaces as `+` (`application/x-www-form-urlencoded` bodies and
    /// browser-built query strings).
    FormPercent,
    /// Standard base64.
    Base64,
    /// URL-safe base64, no padding.
    Base64Url,
    /// Lowercase hex of the UTF-8 bytes.
    Hex,
    /// MD5 hex digest.
    Md5,
    /// SHA-1 hex digest.
    Sha1,
    /// SHA-256 hex digest.
    Sha256,
    /// Identifier with separators stripped (`aa:bb:cc` → `aabbcc`,
    /// UUIDs without dashes).
    StripSeparators,
    /// ROT13 (yes, really seen in 2016 SDK traffic).
    Rot13,
}

impl Encoding {
    /// Every supported transform, in search order (cheapest first).
    pub const ALL: [Encoding; 13] = [
        Encoding::Plain,
        Encoding::Lowercase,
        Encoding::Uppercase,
        Encoding::Percent,
        Encoding::FormPercent,
        Encoding::StripSeparators,
        Encoding::Base64,
        Encoding::Base64Url,
        Encoding::Hex,
        Encoding::Rot13,
        Encoding::Md5,
        Encoding::Sha1,
        Encoding::Sha256,
    ];

    /// Apply this transform to `value`.
    pub fn apply(self, value: &str) -> String {
        match self {
            Encoding::Plain => value.to_string(),
            Encoding::Lowercase => value.to_ascii_lowercase(),
            Encoding::Uppercase => value.to_ascii_uppercase(),
            Encoding::Percent => codec::percent_encode(value),
            Encoding::FormPercent => codec::form_encode(value),
            Encoding::Base64 => codec::base64_encode(value.as_bytes()),
            Encoding::Base64Url => codec::base64url_encode(value.as_bytes()),
            Encoding::Hex => codec::hex_encode(value.as_bytes()),
            Encoding::Md5 => hash::md5_hex(value.as_bytes()),
            Encoding::Sha1 => hash::sha1_hex(value.as_bytes()),
            Encoding::Sha256 => hash::sha256_hex(value.as_bytes()),
            Encoding::StripSeparators => value
                .chars()
                .filter(|c| !matches!(c, ':' | '-' | ' ' | '.' | '(' | ')'))
                .collect(),
            Encoding::Rot13 => value
                .chars()
                .map(|c| match c {
                    'a'..='z' => (((c as u8 - b'a') + 13) % 26 + b'a') as char,
                    'A'..='Z' => (((c as u8 - b'A') + 13) % 26 + b'A') as char,
                    other => other,
                })
                .collect(),
        }
    }

    /// Whether this transform is a one-way hash (detection can only
    /// match the digest of ground truth, never recover the value).
    pub fn is_hash(self) -> bool {
        matches!(self, Encoding::Md5 | Encoding::Sha1 | Encoding::Sha256)
    }
}

/// A transform pipeline applied left to right, e.g.
/// `[Lowercase, Md5]` = "hash of the lowercased e-mail" —
/// the canonical tracker e-mail transform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodingChain(pub Vec<Encoding>);

impl EncodingChain {
    /// The identity chain.
    pub fn plain() -> Self {
        EncodingChain(vec![Encoding::Plain])
    }

    /// Apply the whole chain.
    pub fn apply(&self, value: &str) -> String {
        self.0.iter().fold(value.to_string(), |v, e| e.apply(&v))
    }

    /// Compact label, e.g. `"lowercase>md5"`.
    pub fn label(&self) -> String {
        self.0
            .iter()
            .map(|e| format!("{e:?}").to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join(">")
    }
}

/// The chains the matcher searches, in priority order. Single transforms
/// plus the handful of compound transforms trackers actually use.
pub fn search_chains() -> Vec<EncodingChain> {
    let mut chains: Vec<EncodingChain> = Encoding::ALL
        .iter()
        .map(|&e| EncodingChain(vec![e]))
        .collect();
    chains.extend([
        EncodingChain(vec![Encoding::Lowercase, Encoding::Md5]),
        EncodingChain(vec![Encoding::Lowercase, Encoding::Sha1]),
        EncodingChain(vec![Encoding::Lowercase, Encoding::Sha256]),
        EncodingChain(vec![Encoding::StripSeparators, Encoding::Md5]),
        EncodingChain(vec![Encoding::StripSeparators, Encoding::Sha1]),
        EncodingChain(vec![Encoding::StripSeparators, Encoding::Uppercase]),
        EncodingChain(vec![Encoding::Base64, Encoding::Percent]),
        EncodingChain(vec![Encoding::Uppercase, Encoding::Md5]),
    ]);
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_encoding_transforms() {
        let v = "Jane.Conner@Example.COM";
        assert_eq!(Encoding::Plain.apply(v), v);
        assert_eq!(Encoding::Lowercase.apply(v), "jane.conner@example.com");
        assert_eq!(Encoding::Uppercase.apply(v), "JANE.CONNER@EXAMPLE.COM");
        assert!(Encoding::Percent.apply(v).contains("%40"));
        assert!(!Encoding::Base64.apply(v).is_empty());
        assert_eq!(Encoding::Hex.apply("ab"), "6162");
        assert_eq!(Encoding::Md5.apply(v).len(), 32);
        assert_eq!(Encoding::Sha1.apply(v).len(), 40);
        assert_eq!(Encoding::Sha256.apply(v).len(), 64);
    }

    #[test]
    fn strip_separators_for_identifiers() {
        assert_eq!(
            Encoding::StripSeparators.apply("02:00:4c:4f:4f:50"),
            "02004c4f4f50"
        );
        assert_eq!(
            Encoding::StripSeparators.apply("aaaa-bbbb-cccc"),
            "aaaabbbbcccc"
        );
        assert_eq!(
            Encoding::StripSeparators.apply("(617) 555-0142"),
            "6175550142"
        );
    }

    #[test]
    fn rot13_involution() {
        let v = "Hello, World 42!";
        assert_eq!(Encoding::Rot13.apply(&Encoding::Rot13.apply(v)), v);
    }

    #[test]
    fn chains_compose_left_to_right() {
        let chain = EncodingChain(vec![Encoding::Lowercase, Encoding::Md5]);
        assert_eq!(
            chain.apply("USER@EXAMPLE.COM"),
            Encoding::Md5.apply("user@example.com")
        );
        assert_eq!(chain.label(), "lowercase>md5");
    }

    #[test]
    fn search_chains_cover_tracker_conventions() {
        let chains = search_chains();
        assert!(chains.len() >= Encoding::ALL.len() + 5);
        // The gravatar-style chain must be present.
        assert!(chains
            .iter()
            .any(|c| c.0 == vec![Encoding::Lowercase, Encoding::Md5]));
    }
}

appvsweb_json::impl_json!(
    enum Encoding {
        Plain,
        Lowercase,
        Uppercase,
        Percent,
        FormPercent,
        Base64,
        Base64Url,
        Hex,
        Md5,
        Sha1,
        Sha256,
        StripSeparators,
        Rot13,
    }
);
appvsweb_json::impl_json!(newtype EncodingChain(Vec<Encoding>));
