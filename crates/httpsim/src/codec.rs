//! Byte/text codecs used throughout the pipeline.
//!
//! The PII detector has to find identifiers that services transmit under a
//! variety of encodings (the paper notes GPS coordinates sent with
//! arbitrary precision and identifiers "formatted inconsistently"). The
//! codecs here are shared between the HTTP layer (percent/form encoding)
//! and the PII encoder zoo (base64, hex).

/// Bytes that never need percent-encoding inside a query component.
///
/// This matches the conservative "unreserved" set of RFC 3986 plus a few
/// characters that browsers commonly leave bare in query strings.
fn is_query_safe(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~' | b'*')
}

/// Percent-encode `input` for use in a URL query component.
///
/// Spaces become `%20` (use [`form_urlencode`] for `+`-style encoding).
///
/// ```
/// use appvsweb_httpsim::codec::percent_encode;
/// assert_eq!(percent_encode("a b&c"), "a%20b%26c");
/// ```
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    encode_into(input, "%20", &mut out);
    out
}

/// Form-encode one component: [`percent_encode`] with spaces as `+`.
///
/// ```
/// use appvsweb_httpsim::codec::form_encode;
/// assert_eq!(form_encode("a b&c"), "a+b%26c");
/// ```
pub fn form_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    encode_into(input, "+", &mut out);
    out
}

/// Append `key=value`, form-encoded, to `out`, reserving its exact
/// length first: the one-pass core of [`form_urlencode`] and
/// [`crate::Url::push_query`].
pub fn form_encode_pair_into(key: &str, value: &str, out: &mut String) {
    out.reserve(encoded_len(key) + 1 + encoded_len(value));
    encode_into(key, "+", out);
    out.push('=');
    encode_into(value, "+", out);
}

/// Length of `input` percent-encoded, counting a space as `%20` (the
/// longer of its two forms).
fn encoded_len(input: &str) -> usize {
    input
        .bytes()
        .map(|b| if is_query_safe(b) { 1 } else { 3 })
        .sum()
}

/// Append `input` percent-encoded to `out`, a space as `space`.
fn encode_into(input: &str, space: &str, out: &mut String) {
    for &b in input.as_bytes() {
        if is_query_safe(b) {
            out.push(b as char);
        } else if b == b' ' {
            out.push_str(space);
        } else {
            out.push('%');
            out.push(hex_digit(b >> 4));
            out.push(hex_digit(b & 0xf));
        }
    }
}

/// Percent-decode a query component. Invalid escapes are passed through
/// verbatim, matching lenient browser behaviour; `+` decodes to space.
///
/// ```
/// use appvsweb_httpsim::codec::percent_decode;
/// assert_eq!(percent_decode("a%20b%26c"), "a b&c");
/// assert_eq!(percent_decode("a+b"), "a b");
/// assert_eq!(percent_decode("100%"), "100%");
/// ```
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if let (Some(&h), Some(&l)) = (bytes.get(i + 1), bytes.get(i + 2)) {
                    if let (Some(hi), Some(lo)) = (from_hex_digit(h), from_hex_digit(l)) {
                        appvsweb_cover::cover!();
                        out.push((hi << 4) | lo);
                        i += 3;
                        continue;
                    }
                }
                appvsweb_cover::cover!();
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                appvsweb_cover::cover!();
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_digit(v: u8) -> char {
    match v {
        0..=9 => (b'0' + v) as char,
        _ => (b'A' + v - 10) as char,
    }
}

fn from_hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Encode key/value pairs as `application/x-www-form-urlencoded`
/// (spaces become `+`, pair order preserved).
///
/// ```
/// use appvsweb_httpsim::codec::form_urlencode;
/// let enc = form_urlencode(&[("q", "rust lang"), ("page", "1")]);
/// assert_eq!(enc, "q=rust+lang&page=1");
/// ```
pub fn form_urlencode(pairs: &[(&str, &str)]) -> String {
    let len = pairs
        .iter()
        .map(|(k, v)| encoded_len(k) + encoded_len(v) + 2)
        .sum();
    let mut out = String::with_capacity(len);
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        form_encode_pair_into(k, v, &mut out);
    }
    out
}

/// The allocate-per-component encoders the one-pass ones replaced,
/// retained as differential oracles (`tests/fastpath_differential.rs`).
pub mod reference {
    use super::{hex_digit, is_query_safe};

    /// Reference twin of [`super::percent_encode`].
    pub fn percent_encode_reference(input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        for &b in input.as_bytes() {
            if is_query_safe(b) {
                out.push(b as char);
            } else {
                out.push('%');
                out.push(hex_digit(b >> 4));
                out.push(hex_digit(b & 0xf));
            }
        }
        out
    }

    /// Reference twin of [`super::form_urlencode`]: percent-encode each
    /// component, then rewrite `%20` to `+`.
    pub fn form_urlencode_reference(pairs: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push('&');
            }
            out.push_str(&percent_encode_reference(k).replace("%20", "+"));
            out.push('=');
            out.push_str(&percent_encode_reference(v).replace("%20", "+"));
        }
        out
    }
}

/// Decode an `application/x-www-form-urlencoded` (or URL query) string into
/// key/value pairs. Keys without `=` get an empty value.
///
/// ```
/// use appvsweb_httpsim::codec::form_urldecode;
/// let pairs = form_urldecode("q=rust+lang&flag");
/// assert_eq!(pairs, vec![("q".into(), "rust lang".into()), ("flag".into(), String::new())]);
/// ```
pub fn form_urldecode(input: &str) -> Vec<(String, String)> {
    input
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => {
                appvsweb_cover::cover!();
                (percent_decode(k), percent_decode(v))
            }
            None => {
                appvsweb_cover::cover!();
                (percent_decode(pair), String::new())
            }
        })
        .collect()
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
const B64_URL_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Standard base64 with padding.
///
/// ```
/// use appvsweb_httpsim::codec::base64_encode;
/// assert_eq!(base64_encode(b"hi"), "aGk=");
/// ```
pub fn base64_encode(data: &[u8]) -> String {
    base64_encode_with(data, B64_ALPHABET, true)
}

/// URL-safe base64 without padding (as used in many tracking beacons).
pub fn base64url_encode(data: &[u8]) -> String {
    base64_encode_with(data, B64_URL_ALPHABET, false)
}

fn base64_encode_with(data: &[u8], alphabet: &[u8; 64], pad: bool) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk.first().copied().unwrap_or(0) as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(alphabet[(n >> 18) as usize & 0x3f] as char);
        out.push(alphabet[(n >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(alphabet[(n >> 6) as usize & 0x3f] as char);
        } else if pad {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(alphabet[n as usize & 0x3f] as char);
        } else if pad {
            out.push('=');
        }
    }
    out
}

/// Decode standard or URL-safe base64, with or without padding.
/// Returns `None` on any invalid character.
///
/// ```
/// use appvsweb_httpsim::codec::base64_decode;
/// assert_eq!(base64_decode("aGk=").unwrap(), b"hi");
/// assert_eq!(base64_decode("aGk").unwrap(), b"hi");
/// ```
pub fn base64_decode(input: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len() / 4 * 3);
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for &b in input.as_bytes() {
        let v = match b {
            b'A'..=b'Z' => b - b'A',
            b'a'..=b'z' => b - b'a' + 26,
            b'0'..=b'9' => b - b'0' + 52,
            b'+' | b'-' => {
                appvsweb_cover::cover!();
                62
            }
            b'/' | b'_' => {
                appvsweb_cover::cover!();
                63
            }
            b'=' => {
                appvsweb_cover::cover!();
                continue;
            }
            b'\r' | b'\n' => {
                appvsweb_cover::cover!();
                continue;
            }
            _ => {
                appvsweb_cover::cover!();
                return None;
            }
        } as u32;
        acc = (acc << 6) | v;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    Some(out)
}

/// Lowercase hex encoding.
///
/// ```
/// use appvsweb_httpsim::codec::hex_encode;
/// assert_eq!(hex_encode(b"\x01\xff"), "01ff");
/// ```
pub fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2);
    for &b in data {
        out.push(hex_digit(b >> 4).to_ascii_lowercase());
        out.push(hex_digit(b & 0xf).to_ascii_lowercase());
    }
    out
}

/// Decode a hex string (either case). Returns `None` on odd length or a
/// non-hex character.
pub fn hex_decode(input: &str) -> Option<Vec<u8>> {
    let bytes = input.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        appvsweb_cover::cover!();
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks(2) {
        let &[hi, lo] = pair else { return None };
        let Some(hi) = from_hex_digit(hi) else {
            appvsweb_cover::cover!();
            return None;
        };
        let Some(lo) = from_hex_digit(lo) else {
            appvsweb_cover::cover!();
            return None;
        };
        out.push((hi << 4) | lo);
    }
    appvsweb_cover::cover!();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip_basic() {
        let s = "user@example.com & more: 42.361,-71.058";
        assert_eq!(percent_decode(&percent_encode(s)), s);
    }

    #[test]
    fn percent_encode_leaves_safe_chars() {
        assert_eq!(percent_encode("abc-XYZ_0.9~*"), "abc-XYZ_0.9~*");
    }

    #[test]
    fn percent_decode_lenient_on_bad_escape() {
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn one_pass_encoders_match_reference() {
        for s in ["", "a b", "a%20b", "x y+z&=?", "\u{e9}t\u{e9} 100%", "  "] {
            assert_eq!(percent_encode(s), reference::percent_encode_reference(s));
            assert_eq!(
                form_encode(s),
                reference::percent_encode_reference(s).replace("%20", "+")
            );
            let pairs = [(s, "v w"), ("k", s)];
            assert_eq!(
                form_urlencode(&pairs),
                reference::form_urlencode_reference(&pairs)
            );
        }
    }

    #[test]
    fn form_codec_roundtrip() {
        let pairs = [("email", "a b@c.com"), ("gender", "F"), ("empty", "")];
        let enc = form_urlencode(&pairs);
        let dec = form_urldecode(&enc);
        assert_eq!(dec.len(), 3);
        assert_eq!(dec[0], ("email".to_string(), "a b@c.com".to_string()));
        assert_eq!(dec[2].1, "");
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn base64url_no_padding() {
        let enc = base64url_encode(&[0xfb, 0xff]);
        assert!(!enc.contains('='));
        assert!(enc.contains('-') || enc.contains('_') || !enc.contains('+'));
        assert_eq!(base64_decode(&enc).unwrap(), vec![0xfb, 0xff]);
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("not base64 !!!").is_none());
    }

    #[test]
    fn hex_roundtrip_and_reject() {
        assert_eq!(
            hex_decode(&hex_encode(b"\x00\x7f\xff")).unwrap(),
            b"\x00\x7f\xff"
        );
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
        assert_eq!(hex_decode("AbCd").unwrap(), vec![0xab, 0xcd]);
    }
}
