//! Fuzz entry points: codec round-trips and gzip/DEFLATE totality.
//!
//! Two targets share this module because they share the dictionary
//! family (HTTP tokens and the gzip magic):
//!
//! * [`run_codec`] — percent/form/base64/hex codecs. Decoders must be
//!   total on arbitrary input, and every decode∘encode pair must be the
//!   identity on the original data.
//! * [`run_gzip`] — the DEFLATE inflater and the gzip framing. Both
//!   must return typed errors (never panic) on arbitrary bytes, and
//!   compress∘decompress must round-trip the fuzz input itself.

use crate::codec;
use crate::compress;

/// Codec target: totality plus round-trip laws on the fuzz bytes.
pub fn run_codec(data: &[u8]) {
    // Round-trips on raw bytes.
    let b64 = codec::base64_encode(data);
    assert_eq!(
        codec::base64_decode(&b64).as_deref(),
        Some(data),
        "base64 round-trip"
    );
    let hex = codec::hex_encode(data);
    assert_eq!(
        codec::hex_decode(&hex).as_deref(),
        Some(data),
        "hex round-trip"
    );
    // Totality of the decoders on arbitrary (lossy-decoded) text.
    let text = String::from_utf8_lossy(data);
    let _ = codec::base64_decode(&text);
    let _ = codec::hex_decode(&text);
    let decoded = codec::percent_decode(&text);
    // Encoding the decoded text and decoding again is a fixed point.
    let reencoded = codec::percent_encode(&decoded);
    assert_eq!(
        codec::percent_decode(&reencoded),
        decoded,
        "percent-codec fixed point"
    );
    // Form decoding is total and its pairs re-encode losslessly.
    let pairs = codec::form_urldecode(&text);
    let borrowed: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let encoded = codec::form_urlencode(&borrowed);
    assert_eq!(
        codec::form_urldecode(&encoded),
        pairs,
        "form-codec round-trip"
    );
}

/// Gzip/DEFLATE target: inflater totality, compressor round-trip, and
/// the pooled `_into` variants' differential laws against the plain
/// allocating forms.
pub fn run_gzip(data: &[u8]) {
    // Arbitrary bytes through both framings: typed errors only.
    let _ = compress::inflate(data);
    let _ = compress::gzip_decompress(data);
    // The compressors must round-trip the fuzz input itself.
    let deflated = compress::deflate(data);
    assert_eq!(
        compress::inflate(&deflated).as_deref(),
        Ok(data),
        "deflate round-trip"
    );
    let gz = compress::gzip_compress(data);
    assert_eq!(
        compress::gzip_decompress(&gz).as_deref(),
        Ok(data),
        "gzip round-trip"
    );

    // Differential: the `_into` variants append after a pre-existing
    // prefix and must (a) produce exactly the plain forms' bytes, (b)
    // never disturb the prefix, and (c) truncate back to the prefix on
    // error — a corrupt stream must not hand back half-written output
    // or read the pooled buffer's earlier contents.
    const PREFIX: &[u8] = b"\xa5\xa5pre";
    let mut out = PREFIX.to_vec();
    compress::gzip_compress_into(data, &mut out);
    assert_eq!(
        &out[..PREFIX.len()],
        PREFIX,
        "compress_into moved the prefix"
    );
    assert_eq!(&out[PREFIX.len()..], &gz[..], "compress_into diverged");

    let mut plain = PREFIX.to_vec();
    match compress::gzip_decompress_into(data, &mut plain) {
        Ok(()) => assert_eq!(
            compress::gzip_decompress(data).as_deref(),
            Ok(&plain[PREFIX.len()..]),
            "decompress_into diverged on success"
        ),
        Err(e) => {
            assert_eq!(
                compress::gzip_decompress(data),
                Err(e),
                "decompress_into diverged on error"
            );
            assert_eq!(plain, PREFIX, "error must restore the prefix length");
        }
    }

    let mut inflated = PREFIX.to_vec();
    match compress::inflate_into(data, &mut inflated) {
        Ok(()) => assert_eq!(
            compress::inflate(data).as_deref(),
            Ok(&inflated[PREFIX.len()..]),
            "inflate_into diverged on success"
        ),
        Err(e) => {
            assert_eq!(
                compress::inflate(data),
                Err(e),
                "inflate_into error diverged"
            );
            assert_eq!(
                inflated, PREFIX,
                "inflate error must restore the prefix length"
            );
        }
    }
}

/// Wire target: both HTTP parser generations over arbitrary bytes.
///
/// The zero-copy [`crate::wire::MessageView`] parsers must agree with
/// the retained eager reference parsers on every input — success,
/// failure, and error value alike — and anything that parses must obey
/// the arithmetic wire-length law the MITM byte accounting relies on.
pub fn run_wire(data: &[u8]) {
    use crate::wire::reference;

    let req_secure = crate::wire::parse_request(data, true);
    let req_plain = crate::wire::parse_request(data, false);
    let resp = crate::wire::parse_response(data);

    assert_eq!(
        req_secure,
        reference::parse_request_reference(data, true),
        "request parse diverged (secure)"
    );
    assert_eq!(
        req_plain,
        reference::parse_request_reference(data, false),
        "request parse diverged (plain)"
    );
    assert_eq!(
        resp,
        reference::parse_response_reference(data),
        "response parse diverged"
    );

    if let Ok(req) = req_secure {
        let bytes = crate::wire::serialize_request(&req);
        assert_eq!(
            bytes.len(),
            crate::wire::request_wire_len(&req),
            "request wire-length arithmetic diverged"
        );
    }
    if let Ok(resp) = resp {
        let bytes = crate::wire::serialize_response(&resp);
        assert_eq!(
            bytes.len(),
            crate::wire::response_wire_len(&resp),
            "response wire-length arithmetic diverged"
        );
        assert_eq!(
            bytes,
            reference::serialize_response_reference(&resp),
            "response serializer diverged from reference"
        );
    }
}

/// Codec dictionary: encodings' alphabet edges and HTTP query tokens.
pub const CODEC_DICT: &[&[u8]] = &[
    b"%",
    b"%20",
    b"%2",
    b"%ff",
    b"%FF",
    b"+",
    b"=",
    b"&",
    b"==",
    b"aGk=",
    b"deadbeef",
    b"q=",
    b"a=b&c=d",
    b"%e2%82%ac",
];

/// Codec seeds.
pub const CODEC_SEEDS: &[&[u8]] = &[
    b"q=rust+lang&page=1",
    b"a%20b%26c",
    b"SGVsbG8sIHdvcmxkIQ==",
    b"0123456789abcdef",
];

/// Gzip dictionary: magic, method, flag bytes, block-type shrapnel,
/// and stored-block length fields.
pub const GZIP_DICT: &[&[u8]] = &[
    &[0x1f, 0x8b],
    &[0x1f, 0x8b, 0x08, 0x00],
    &[0x1f, 0x8b, 0x08, 0x1c],
    &[0x08],
    &[0x01, 0x00, 0x00, 0xff, 0xff],
    &[0x03, 0x00],
    &[0x00, 0x00, 0x00, 0x00],
    &[0xff, 0xff, 0xff, 0xff],
];

/// Wire dictionary: start-line scaffolding, framing headers, and chunk
/// framing shrapnel (hex sizes, the terminal chunk).
pub const WIRE_DICT: &[&[u8]] = &[
    b"GET ",
    b"POST ",
    b" HTTP/1.1\r\n",
    b"HTTP/1.1 200 OK\r\n",
    b"HTTP/1.1 404 Not Found\r\n",
    b"Host: ",
    b"Content-Length: ",
    b"Transfer-Encoding: chunked\r\n",
    b"Content-Type: application/x-www-form-urlencoded\r\n",
    b"\r\n\r\n",
    b"\r\n",
    b"5\r\n",
    b"400\r\n",
    b"0\r\n\r\n",
];

/// Wire seeds: one request and one response of each framing kind.
pub const WIRE_SEEDS: &[&[u8]] = &[
    b"GET /search?q=privacy HTTP/1.1\r\nHost: www.example.com\r\n\r\n",
    b"POST /login HTTP/1.1\r\nHost: api.example.com\r\nContent-Length: 17\r\n\r\nuser=jane&pass=x1",
    b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    b"HTTP/1.1 204 No Content\r\n\r\n",
];

/// Gzip seeds: a well-formed member (of `b"hello hello hello"`) plus a
/// raw stored-block DEFLATE stream. Regression entries live in the
/// on-disk corpus.
pub const GZIP_SEEDS: &[&[u8]] = &[
    // gzip_compress(b"hello") is itself deterministic, but seeds must be
    // consts; this is the fixed header + a stored block + trailer.
    &[
        0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, // header
        0x01, 0x05, 0x00, 0xfa, 0xff, b'h', b'e', b'l', b'l', b'o', // stored block
        0x86, 0xa6, 0x10, 0x36, // crc32("hello")
        0x05, 0x00, 0x00, 0x00, // ISIZE
    ],
    &[0x01, 0x03, 0x00, 0xfc, 0xff, b'a', b'b', b'c'],
];
