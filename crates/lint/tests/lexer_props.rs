//! Property tests for the lint lexer: it must be *total* (never panic,
//! whatever bytes arrive) and *lossless* (token concatenation
//! reconstructs the input byte-for-byte), because every rule and every
//! reported line number build on those two guarantees.

use appvsweb_lint::lex;
use appvsweb_testkit::{gen, prop_test, Gen, SimRng};

/// Strings biased toward lexer-interesting shapes: quotes, comment
/// openers, raw-string hashes, lifetimes, numbers with underscores.
fn tricky_strings() -> impl Gen<Value = String> {
    gen::from_fn(|rng: &mut SimRng| {
        const PIECES: &[&str] = &[
            "\"",
            "'",
            "r#\"",
            "\"#",
            "r#",
            "#",
            "//",
            "/*",
            "*/",
            "b\"",
            "br#\"",
            "'a",
            "'\\''",
            "0x_f",
            "1_000.5e-3",
            "..",
            "::",
            "ident",
            "\\",
            "\n",
            " ",
            "\u{2603}",
            "0.",
            "'x'",
        ];
        let n = rng.below(12);
        let mut out = String::new();
        for _ in 0..n {
            out.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
        }
        out
    })
}

prop_test! {
    fn lexing_printable_strings_is_lossless(s in gen::printable_strings(0..=120)) {
        let rebuilt: String = lex(&s).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, s, "lexer dropped or altered bytes");
    }

    fn lexing_tricky_strings_never_panics_and_is_lossless(s in tricky_strings()) {
        let rebuilt: String = lex(&s).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, s, "lexer dropped or altered bytes");
    }

    fn lexing_arbitrary_bytes_never_panics(raw in gen::bytes(0..=160)) {
        // Arbitrary bytes, lossily decoded: exercises multi-byte
        // boundaries, stray continuation bytes, and embedded NULs.
        let s = String::from_utf8_lossy(&raw);
        let rebuilt: String = lex(&s).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, s, "lexer dropped or altered bytes");
    }

    fn token_lines_are_monotonic(s in tricky_strings()) {
        let toks = lex(&s);
        for pair in toks.windows(2) {
            assert!(pair[0].line <= pair[1].line, "line numbers went backwards");
        }
    }
}
