//! Fuzz entry point for the EasyList filter parser and matcher.
//!
//! The input is two lines: a filter-list line and a URL. The parser
//! must be total on any line; when it yields a network filter, the
//! matcher must be total too, and reparsing the filter's `raw` text
//! must reproduce the same filter (parse is idempotent — what the
//! engine serializes and reports can be round-tripped into the same
//! rule).
//!
//! The matcher is a backtracking recursive descent, exponential in the
//! number of `*` wildcards and linear in pattern length for stack
//! depth; the harness bounds both (3 stars, 256-byte pattern, 64-byte
//! URL) the same way [`crate::engine::FilterEngine`] bounds real lists
//! by construction.

use crate::filter::{parse_line, ParsedLine};

/// Run the filter target on raw fuzz bytes.
pub fn run(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let (rule_line, url_line) = match text.split_once('\n') {
        Some((a, b)) => (a, b),
        None => (text.as_ref(), "https://ads.example.com/pixel?id=1"),
    };

    let parsed = parse_line(rule_line);
    let ParsedLine::Network(filter) = parsed else {
        return;
    };

    // Reparsing the recorded raw text reproduces the same filter.
    assert_eq!(
        parse_line(&filter.raw),
        ParsedLine::Network(filter.clone()),
        "parse_line is not idempotent on its own raw output"
    );

    // Bound the matcher's backtracking before driving it.
    let stars = filter.pattern.matches('*').count();
    if filter.pattern.len() > 256 || stars > 3 {
        return;
    }
    let url = url_line.to_ascii_lowercase();
    let url = match url.char_indices().nth(64) {
        Some((cut, _)) => url.get(..cut).unwrap_or("").to_string(),
        None => url,
    };
    let matched = filter.pattern_matches(&url);

    // Differential: the pre-filter must never discard a matching
    // filter (zero-false-negative law), and a whole-engine check must
    // agree with the retained reference walk on the same rule line.
    let pre = crate::prefilter::Prefilter::build(std::slice::from_ref(&filter));
    if matched {
        assert_eq!(
            pre.candidates(&url),
            vec![0],
            "pre-filter dropped matching rule {:?} for {url:?}",
            filter.raw
        );
    }
    let mut engine = crate::engine::FilterEngine::new();
    engine.load_list(rule_line);
    let req = crate::engine::RequestInfo {
        url: &url,
        origin_host: "origin.example.com",
        resource_type: None,
    };
    assert_eq!(
        engine.check(&req),
        engine.check_reference(&req),
        "pre-filtered engine diverged from reference on {:?} / {url:?}",
        filter.raw
    );
}

/// Dictionary: anchors, separators, options, and URL scaffolding.
pub const DICT: &[&[u8]] = &[
    b"||",
    b"|",
    b"^",
    b"*",
    b"@@",
    b"$",
    b"##",
    b"#@#",
    b"!",
    b"$third-party",
    b"$~third-party",
    b"$script",
    b"$domain=",
    b"domain=a.com|~b.com",
    b"://",
    b"https://",
    b".com",
    b"\n",
];

/// Seeds: one rule of each anchor kind, with a matching URL.
pub const SEEDS: &[&[u8]] = &[
    b"||doubleclick.net^\nhttps://ads.g.doubleclick.net/pixel?x=1",
    b"|https://ads.\nhttps://ads.example.com/",
    b"/adserver/*/banner\nhttps://x.com/adserver/v2/banner.png",
    b"@@||goodcdn.com^$script,domain=news.com|~sports.news.com\nhttps://goodcdn.com/lib.js",
    b"swf|\nhttp://x.com/movie.swf",
];
