//! Flow tokenization and structured key/value extraction.
//!
//! ReCon's insight (Ren et al., MobiSys 2016) is that PII-bearing flows
//! are recognizable from their *structure*: the keys and tokens around a
//! value ("email=", "lat=", JSON field names) are stable even when the
//! value changes per user. The feature extractor therefore tokenizes the
//! whole flow into a bag of words and, separately, extracts key/value
//! pairs from query strings, form bodies, JSON-ish bodies, and cookies.
//!
//! Detection reads every flow through one [`FlowView`]: the flow's text
//! lowercased once, plus the byte spans of its key/value pairs, its
//! ReCon tokens and its base64 blob candidates. The matcher, the ReCon
//! classifier and the verification step all borrow from the same view,
//! so a flow is tokenized once and nothing per pair or per token is
//! allocated. [`tokenize`], [`token_set`] and [`extract_kv`] are the
//! owned forms; the view's spans equal them on every input (a law of
//! the `pii_tokenize` fuzz target), and ReCon training still reads
//! [`token_set`].

use crate::types::PiiType;

/// Characters that delimit tokens in HTTP flow text.
const fn is_delimiter(c: char) -> bool {
    matches!(
        c,
        '=' | '&'
            | '?'
            | '/'
            | ':'
            | ';'
            | ','
            | '"'
            | '\''
            | '{'
            | '}'
            | '['
            | ']'
            | '('
            | ')'
            | ' '
            | '\t'
            | '\r'
            | '\n'
            | '<'
            | '>'
            | '%'
            | '+'
            | '\\'
    )
}

/// Split flow text into lowercase tokens, dropping empties and very long
/// opaque blobs (base64 bodies would otherwise flood the vocabulary).
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(is_delimiter)
        .filter(|t| !t.is_empty() && t.len() <= 40)
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// Tokens as a deduplicated, sorted set (bag-of-words presence features).
pub fn token_set(text: &str) -> Vec<String> {
    let mut tokens = tokenize(text);
    tokens.sort();
    tokens.dedup();
    tokens
}

/// Extract `key=value`-shaped pairs from flow text. Handles query
/// strings, form bodies, cookie strings, and flat JSON objects
/// (`"key":"value"` / `"key":123`).
pub fn extract_kv(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();

    // key=value in query/form/cookie segments. The request line ends in
    // " HTTP/1.1", so a trailing query value must stop at whitespace.
    for segment in text.split(['&', ';', '?', '\n']) {
        let segment = segment.trim();
        if let Some((k, v)) = segment.split_once('=') {
            appvsweb_cover::cover!();
            let k = k.rsplit([' ', '/']).next().unwrap_or(k);
            let v = v.split_whitespace().next().unwrap_or("");
            if !k.is_empty() && !v.is_empty() && k.len() <= 40 && v.len() <= 256 {
                appvsweb_cover::cover!();
                out.push((k.to_ascii_lowercase(), v.to_string()));
            }
        }
    }

    // "key":"value" and "key":number in JSON-ish bodies.
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(key_end) = find_quote(bytes, i + 1) {
                appvsweb_cover::cover!();
                let key = &text[i + 1..key_end];
                let mut j = key_end + 1;
                while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b':') {
                    if bytes[j] == b':' {
                        j += 1;
                        while j < bytes.len() && bytes[j] == b' ' {
                            j += 1;
                        }
                        let value = if j < bytes.len() && bytes[j] == b'"' {
                            appvsweb_cover::cover!();
                            find_quote(bytes, j + 1).map(|end| text[j + 1..end].to_string())
                        } else {
                            let end = text[j..]
                                .find([',', '}', ']', '\n'])
                                .map(|off| j + off)
                                .unwrap_or(bytes.len());
                            let v = text[j..end].trim();
                            if v.is_empty() {
                                None
                            } else {
                                Some(v.to_string())
                            }
                        };
                        if let Some(v) = value {
                            if !key.is_empty() && key.len() <= 40 && v.len() <= 256 {
                                out.push((key.to_ascii_lowercase(), v));
                            }
                        }
                        break;
                    }
                    j += 1;
                }
                i = key_end + 1;
                continue;
            }
        }
        i += 1;
    }

    out
}

/// A byte range `start..end` of a flow's text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// The span of `part`, a subslice of `text`.
    fn of(text: &str, part: &str) -> Span {
        let start = part.as_ptr() as usize - text.as_ptr() as usize;
        Span {
            start,
            end: start + part.len(),
        }
    }

    fn at(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    fn get(self, text: &str) -> &str {
        &text[self.start..self.end]
    }
}

/// One key/value pair of a [`FlowView`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Kv<'v> {
    /// The key, lowercased (as [`extract_kv`] returns it).
    pub key: &'v str,
    /// The value as it appears in the flow.
    pub value: &'v str,
    /// The value, ASCII-lowercased.
    pub value_lower: &'v str,
}

/// One flow, read once for every detection stage.
///
/// Holds the flow's text, its ASCII-lowercased copy (same byte offsets),
/// and byte spans for the key/value pairs of [`extract_kv`], the tokens
/// of [`tokenize`] and the base64 blob candidates the matcher decodes.
#[derive(Clone, Debug)]
pub struct FlowView<'a> {
    text: &'a str,
    lower: String,
    /// `(key, value)` spans, in [`extract_kv`] order.
    kv: Vec<(Span, Span)>,
    /// Token spans in flow order (duplicates kept).
    tokens: Vec<Span>,
    /// Base64 blob candidates in flow order.
    blobs: Vec<Span>,
}

impl<'a> FlowView<'a> {
    /// Tokenize `text` once: one pass over its bytes finds the tokens,
    /// the blob candidates and the `key=value` segments, and a second
    /// pass finds the JSON-ish `"key":value` pairs.
    pub fn new(text: &'a str) -> Self {
        let mut view = FlowView {
            text,
            lower: text.to_ascii_lowercase(),
            // Sized for typical request text so the pushes below rarely
            // reallocate.
            kv: Vec::with_capacity(8),
            tokens: Vec::with_capacity(text.len() / 4 + 1),
            blobs: Vec::with_capacity(4),
        };
        // Every delimiter is ASCII, so splitting bytes splits exactly
        // where splitting chars does.
        let (mut token, mut blob, mut segment) = (0, 0, 0);
        let mut segment_has_eq = false;
        for (i, &b) in text.as_bytes().iter().enumerate() {
            let class = BYTE_CLASS[b as usize];
            if class == 0 {
                continue;
            }
            if class & TOKEN_DELIM != 0 {
                view.push_token(token, i);
                token = i + 1;
            }
            if class & BLOB_DELIM != 0 {
                view.push_blob(blob, i);
                blob = i + 1;
            }
            segment_has_eq |= class & EQ != 0;
            if class & SEGMENT_DELIM != 0 {
                if segment_has_eq {
                    push_query_pair(text, &text[segment..i], &mut view.kv);
                }
                segment = i + 1;
                segment_has_eq = false;
            }
        }
        let end = text.len();
        view.push_token(token, end);
        view.push_blob(blob, end);
        if segment_has_eq {
            push_query_pair(text, &text[segment..], &mut view.kv);
        }
        push_json_pairs(text, &mut view.kv);
        view
    }

    fn push_token(&mut self, start: usize, end: usize) {
        if end > start && end - start <= 40 {
            self.tokens.push(Span::at(start, end));
        }
    }

    fn push_blob(&mut self, start: usize, end: usize) {
        if end >= start + 16 {
            self.blobs.push(Span::at(start, end));
        }
    }

    /// The flow text.
    pub(crate) fn text(&self) -> &'a str {
        self.text
    }

    /// The flow text, ASCII-lowercased.
    pub(crate) fn lower(&self) -> &str {
        &self.lower
    }

    /// The key/value pairs, in [`extract_kv`] order.
    pub(crate) fn kv(&self) -> impl Iterator<Item = Kv<'_>> + '_ {
        self.kv.iter().map(|&(k, v)| Kv {
            key: k.get(&self.lower),
            value: v.get(self.text),
            value_lower: v.get(&self.lower),
        })
    }

    /// The pairs whose key hints at `t` (equals or contains one of
    /// [`PiiType::key_hints`]), in flow order: the values ReCon would
    /// extract for a `t` prediction, and the ones verification checks.
    pub(crate) fn hinted_kv(&self, t: PiiType) -> impl Iterator<Item = Kv<'_>> + '_ {
        self.kv().filter(move |kv| key_hints_at(kv.key, t))
    }

    /// The lowercased tokens of [`tokenize`], in flow order.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        self.tokens.iter().map(|s| s.get(&self.lower))
    }

    /// Runs of base64-alphabet bytes at least 16 long: the blobs the
    /// matcher decodes and searches again. `=` is a delimiter (valid
    /// base64 only carries it as trailing padding, and `key=value`
    /// syntax would otherwise glue the key onto the blob); the decoder
    /// accepts unpadded input.
    pub(crate) fn blobs(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.blobs.iter().map(|s| s.get(self.text))
    }
}

/// Does `key` (lowercased) hint at `t`, i.e. equal or contain one of
/// its hints? Keys and hints are a few bytes long, where comparing
/// every window beats `str::contains`'s searcher set-up.
pub(crate) fn key_hints_at(key: &str, t: PiiType) -> bool {
    let key = key.as_bytes();
    t.key_hints().iter().any(|h| {
        let h = h.as_bytes();
        h.is_empty() || key.windows(h.len()).any(|w| w == h)
    })
}

/// [`FlowView`] byte class: delimits [`tokenize`] tokens.
const TOKEN_DELIM: u8 = 1;
/// Outside the base64 alphabet: delimits blob candidates.
const BLOB_DELIM: u8 = 2;
/// Delimits [`extract_kv`]'s `key=value` segments.
const SEGMENT_DELIM: u8 = 4;
/// `=`.
const EQ: u8 = 8;

/// The class bits of every byte.
const BYTE_CLASS: [u8; 256] = {
    let mut classes = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        let mut class = 0;
        if is_delimiter(byte as char) {
            class |= TOKEN_DELIM;
        }
        if !(byte.is_ascii_alphanumeric() || matches!(byte, b'+' | b'/' | b'-' | b'_')) {
            class |= BLOB_DELIM;
        }
        if matches!(byte, b'&' | b';' | b'?' | b'\n') {
            class |= SEGMENT_DELIM;
        }
        if byte == b'=' {
            class |= EQ;
        }
        classes[b] = class;
        b += 1;
    }
    classes
};

/// The pair [`extract_kv`] takes from one `key=value` segment of
/// `text`, if any, as spans.
fn push_query_pair(text: &str, segment: &str, out: &mut Vec<(Span, Span)>) {
    let segment = segment.trim();
    if let Some((k, v)) = segment.split_once('=') {
        let k = k.rsplit([' ', '/']).next().unwrap_or(k);
        let v = v.split_whitespace().next().unwrap_or("");
        if !k.is_empty() && !v.is_empty() && k.len() <= 40 && v.len() <= 256 {
            out.push((Span::of(text, k), Span::of(text, v)));
        }
    }
}

/// The `"key":value` pairs [`extract_kv`] finds in `text`, as spans.
fn push_json_pairs(text: &str, out: &mut Vec<(Span, Span)>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(key_end) = find_quote(bytes, i + 1) {
                let key = Span::at(i + 1, key_end);
                let mut j = key_end + 1;
                while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b':') {
                    if bytes[j] == b':' {
                        j += 1;
                        while j < bytes.len() && bytes[j] == b' ' {
                            j += 1;
                        }
                        let value = if j < bytes.len() && bytes[j] == b'"' {
                            find_quote(bytes, j + 1).map(|end| Span::at(j + 1, end))
                        } else {
                            let end = bytes[j..]
                                .iter()
                                .position(|b| matches!(b, b',' | b'}' | b']' | b'\n'))
                                .map_or(bytes.len(), |off| j + off);
                            let v = text[j..end].trim();
                            (!v.is_empty()).then(|| Span::of(text, v))
                        };
                        if let Some(v) = value {
                            let key_len = key.end - key.start;
                            if key_len != 0 && key_len <= 40 && v.end - v.start <= 256 {
                                out.push((key, v));
                            }
                        }
                        break;
                    }
                    j += 1;
                }
                i = key_end + 1;
                continue;
            }
        }
        i += 1;
    }
}

fn find_quote(bytes: &[u8], from: usize) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == b'"')
        .map(|p| from + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        let t = tokenize("GET /v1/track?Email=a@b.com&lat=42.36 HTTP/1.1");
        assert!(t.contains(&"email".to_string()));
        assert!(t.contains(&"a@b.com".to_string()));
        assert!(t.contains(&"42.36".to_string()));
        assert!(t.contains(&"v1".to_string()));
    }

    #[test]
    fn token_set_dedups() {
        let s = token_set("a=1&a=1&b=2");
        assert_eq!(s, vec!["1", "2", "a", "b"]);
    }

    #[test]
    fn long_blobs_excluded() {
        let blob = "x".repeat(100);
        assert!(tokenize(&blob).is_empty());
    }

    #[test]
    fn kv_from_query_and_form() {
        let kv = extract_kv("uid=abc123&Gender=F&empty=&lat=42.36");
        assert!(kv.contains(&("uid".into(), "abc123".into())));
        assert!(kv.contains(&("gender".into(), "F".into())));
        assert!(kv.contains(&("lat".into(), "42.36".into())));
        assert_eq!(kv.iter().filter(|(k, _)| k == "empty").count(), 0);
    }

    #[test]
    fn kv_from_json_body() {
        let kv = extract_kv(r#"{"email":"jane@x.com","age":27,"device":{"model":"Nexus 5"}}"#);
        assert!(kv.contains(&("email".into(), "jane@x.com".into())));
        assert!(kv.contains(&("age".into(), "27".into())));
        assert!(kv.contains(&("model".into(), "Nexus 5".into())));
    }

    #[test]
    fn kv_from_full_request_text() {
        let raw = "POST /collect HTTP/1.1\r\nHost: t.example\r\nCookie: sid=99; _ga=GA1.2\r\n\r\nemail=jane%40x.com&pw=s3cret";
        let kv = extract_kv(raw);
        assert!(kv.contains(&("sid".into(), "99".into())));
        assert!(kv.contains(&("pw".into(), "s3cret".into())));
    }

    #[test]
    fn kv_last_query_param_stops_at_http_version() {
        // The request line ends in " HTTP/1.1"; the final query value
        // must not absorb it (regression: gender=M went undetected).
        let kv = extract_kv("GET /pixel?uid=1&gender=M HTTP/1.1");
        assert!(kv.contains(&("gender".into(), "M".into())));
    }

    #[test]
    fn flow_view_spans_equal_the_owned_forms() {
        let long = format!("blob={}&{}", "QUJD".repeat(20), "t".repeat(41));
        for text in [
            "GET /v1/track?Email=a@b.com&lat=42.36 HTTP/1.1",
            "POST /collect HTTP/1.1\r\nCookie: sid=99; _ga=GA1.2\r\n\r\nemail=jane%40x.com&pw=s3cret",
            r#"{"email":"jane@x.com","age": 27 ,"device":{"model":"Nexus 5"},"":"x","k":}"#,
            "a=\u{a0}b\u{2003}c&\u{3000}key=v\u{85}w&=x&y=",
            "\u{1F4A9}=\u{1F4A9}&x/y z=1 2",
            &long,
            "",
        ] {
            let view = FlowView::new(text);
            let kv: Vec<(String, String)> = view
                .kv()
                .map(|kv| (kv.key.to_string(), kv.value.to_string()))
                .collect();
            assert_eq!(kv, extract_kv(text), "{text:?}");
            assert_eq!(view.tokens().collect::<Vec<_>>(), tokenize(text), "{text:?}");
            assert!(view.blobs().all(|b| b.len() >= 16));
        }
        assert_eq!(FlowView::new(&long).blobs().count(), 2);
    }

    #[test]
    fn hinted_kv_yields_the_values_under_hinting_keys() {
        let view = FlowView::new("a=1&email=jane@x.com&user_mail=X@Y.COM");
        let emails: Vec<Kv> = view.hinted_kv(PiiType::Email).collect();
        assert_eq!(emails[0].value, "jane@x.com");
        assert_eq!(emails[1].key, "user_mail");
        assert_eq!(emails[1].value_lower, "x@y.com");
        assert_eq!(
            FlowView::new("a=1").hinted_kv(PiiType::Password).next(),
            None
        );
    }

    #[test]
    fn kv_ignores_oversized_values() {
        let huge = format!("key={}", "v".repeat(500));
        assert!(extract_kv(&huge).is_empty());
    }
}
