use crate::{decode, encode, encode_pretty, parse, FromJson, Json, JsonKey};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug, PartialEq)]
struct Sample {
    id: u64,
    name: String,
    score: f64,
    tags: BTreeSet<String>,
    parent: Option<String>,
    pairs: Vec<(String, u32)>,
}

impl_json!(struct Sample { id, name, score, tags, parent, pairs });

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Color {
    Red,
    Green,
    Blue,
}

impl_json!(
    enum Color {
        Red,
        Green,
        Blue,
    }
);

#[derive(Clone, Debug, PartialEq)]
struct Wrapped(u16);

impl_json!(newtype Wrapped(u16));

fn sample() -> Sample {
    Sample {
        id: 42,
        name: "jane \"quoted\" \\ \n π".to_string(),
        score: -2.5,
        tags: ["b", "a"].iter().map(|s| s.to_string()).collect(),
        parent: None,
        pairs: vec![("x".to_string(), 7)],
    }
}

#[test]
fn struct_roundtrip() {
    let s = sample();
    let text = encode(&s);
    assert_eq!(decode::<Sample>(&text).unwrap(), s);
}

#[test]
fn serialization_is_deterministic_and_fixed_point() {
    let s = sample();
    let a = encode_pretty(&s);
    let b = encode_pretty(&s);
    assert_eq!(a, b);
    let reparsed = parse(&a).unwrap();
    assert_eq!(
        reparsed.to_pretty(),
        a,
        "serialize→parse→serialize must be a fixed point"
    );
}

#[test]
fn enum_as_string_and_map_key() {
    assert_eq!(encode(&Color::Green), "\"Green\"");
    assert_eq!(decode::<Color>("\"Blue\"").unwrap(), Color::Blue);
    assert!(decode::<Color>("\"Mauve\"").is_err());

    let mut map = BTreeMap::new();
    map.insert(Color::Red, 1u64);
    map.insert(Color::Blue, 2u64);
    let text = encode(&map);
    assert_eq!(text, "{\"Red\":1,\"Blue\":2}");
    assert_eq!(decode::<BTreeMap<Color, u64>>(&text).unwrap(), map);
}

#[test]
fn newtype_is_transparent() {
    assert_eq!(encode(&Wrapped(200)), "200");
    assert_eq!(decode::<Wrapped>("200").unwrap(), Wrapped(200));
}

#[test]
fn missing_field_reads_as_null() {
    // Option fields tolerate elision; required fields error by name.
    let v = parse("{\"id\":1,\"name\":\"x\",\"score\":0,\"tags\":[],\"pairs\":[]}").unwrap();
    let s = Sample::from_json(&v).unwrap();
    assert_eq!(s.parent, None);
    let incomplete = parse("{\"id\":1}").unwrap();
    let err = Sample::from_json(&incomplete).unwrap_err();
    assert!(
        err.msg.contains("\"name\""),
        "error should name the field: {err}"
    );
}

#[test]
fn numbers_keep_integer_precision() {
    assert_eq!(parse("18446744073709551615").unwrap(), Json::Uint(u64::MAX));
    assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
    assert_eq!(decode::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(parse("-0").unwrap(), Json::Uint(0));
    assert_eq!(parse("1.5e3").unwrap(), Json::Float(1500.0));
    assert!(decode::<u8>("256").is_err());
    assert!(decode::<u32>("-1").is_err());
}

#[test]
fn float_canonical_forms() {
    assert_eq!(encode(&1.0f64), "1");
    assert_eq!(encode(&0.5f64), "0.5");
    assert_eq!(encode(&-0.0f64), "0");
    assert_eq!(encode(&f64::NAN), "null");
    assert!(decode::<f64>("null").unwrap().is_nan());
    assert_eq!(decode::<f64>("3").unwrap(), 3.0);
}

#[test]
fn string_escapes_roundtrip() {
    for s in ["", "plain", "\"\\\n\r\t\u{8}\u{c}\u{1}", "héllo ☂ 𝄞", "a/b"] {
        let text = encode(&s.to_string());
        assert_eq!(decode::<String>(&text).unwrap(), s);
    }
    // Standard escapes and surrogate pairs parse.
    assert_eq!(
        decode::<String>(r#""\u00e9\u263A\uD834\uDD1E\/""#).unwrap(),
        "é☺𝄞/"
    );
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "{'a':1}",
        "[1 2]",
        "01",
        "1.",
        "+1",
        "tru",
        "\"\\x\"",
        "\"unterminated",
        "[1],",
        "nullx",
        "\u{1}",
        "\"\u{1}\"",
        "{\"a\":1,}",
    ] {
        assert!(parse(bad).is_err(), "should reject {bad:?}");
    }
}

#[test]
fn parser_depth_is_bounded() {
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    assert!(
        parse(&deep).is_err(),
        "deep nesting must error, not overflow the stack"
    );
}

#[test]
fn pretty_format_shape() {
    let v = parse("{\"a\":[1,2],\"b\":{},\"c\":[]}").unwrap();
    assert_eq!(
        v.to_pretty(),
        "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": []\n}"
    );
}

#[test]
fn containers_roundtrip() {
    let map: BTreeMap<String, Vec<u64>> =
        [("a".to_string(), vec![1, 2]), ("b".to_string(), vec![])]
            .into_iter()
            .collect();
    assert_eq!(
        decode::<BTreeMap<String, Vec<u64>>>(&encode(&map)).unwrap(),
        map
    );

    let triple = (1u64, "x".to_string(), true);
    assert_eq!(
        decode::<(u64, String, bool)>(&encode(&triple)).unwrap(),
        triple
    );
}

#[test]
fn json_key_for_strings() {
    assert_eq!(String::from_key("k").unwrap(), "k");
    assert_eq!("k".to_string().to_key(), "k");
}

#[test]
fn accessors() {
    let v = parse("{\"a\":[10,20]}").unwrap();
    assert_eq!(v.get("a").and_then(|a| a.at(1)), Some(&Json::Uint(20)));
    assert_eq!(v.get("missing"), None);
    assert!(v.field::<u64>("a").is_err());
    assert_eq!(v.at(0), None);
}
