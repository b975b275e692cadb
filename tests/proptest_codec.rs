//! Property tests for the canonical value codec (journal persistence), the
//! GraphSON-lite JSON codec and the JSON writer/parser underneath it:
//! arbitrary nested values must round-trip exactly through each encoding.

use nepal::gremlin::json::{json_to_value, value_to_json};
use nepal::gremlin::{parse_json, Json};
use nepal::schema::codec::{value_from_text, value_to_text};
use nepal::schema::Value;
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only for the JSON codec (NaN is tested separately
        // in the unit tests; JSON numbers cannot carry NaN).
        (-1e15..1e15f64).prop_map(Value::Float),
        // Printable ASCII (`"` and `\` included), control characters, and
        // two-, three- and four-byte literals, long enough to span many
        // escape-free runs in the JSON decoder.
        "[\u{0}-\u{1f} -~\u{7f}é€☃\u{10348}]{0,300}".prop_map(Value::Str),
        (0i64..2_000_000_000_000_000).prop_map(Value::Ts),
        prop_oneof![
            Just(Value::Ip("10.1.2.3".parse().unwrap())),
            Just(Value::Ip("::1".parse().unwrap())),
            Just(Value::Ip("fe80::42".parse().unwrap())),
        ],
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Composite),
            proptest::collection::btree_map(inner.clone(), inner, 0..3).prop_map(Value::Map),
        ]
    })
}

/// Arbitrary JSON trees: strings with quotes, backslashes, control
/// characters and multi-byte UTF-8 (values and keys), finite numbers from
/// integers to extreme exponents, and nesting.
fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(|i| Json::Num(i as f64)),
        (-1e15..1e15f64).prop_map(Json::Num),
        (-300.0..300.0f64).prop_map(|e| Json::Num(-(10f64.powf(e)))),
        "[\u{0}-\u{1f} -~\u{7f}é€☃\u{10348}]{0,64}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            proptest::collection::btree_map("[\u{0}-\u{1f} -~é☃]{0,8}", inner, 0..4).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_codec_round_trips(j in json_strategy()) {
        let text = j.to_string();
        let back = parse_json(&text).unwrap_or_else(|e| panic!("json parse failed: {e} for `{text}`"));
        prop_assert_eq!(j, back);
    }

    #[test]
    fn journal_codec_round_trips(v in value_strategy()) {
        let text = value_to_text(&v);
        let back = value_from_text(&text)
            .unwrap_or_else(|e| panic!("decode failed: {e} for `{text}`"));
        prop_assert_eq!(&v, &back);
        // Encoding is canonical: re-encoding the decoded value is identical.
        prop_assert_eq!(text, value_to_text(&back));
    }

    #[test]
    fn graphson_codec_round_trips(v in value_strategy()) {
        let j = value_to_json(&v);
        let wire = j.to_string();
        let parsed = parse_json(&wire)
            .unwrap_or_else(|e| panic!("json parse failed: {e} for `{wire}`"));
        // Float fidelity through JSON text is approximate for exotic
        // values; compare via the decoded Value, which uses tag objects
        // with exact bit patterns only for the journal codec. Here we
        // assert structural equality, accepting float text round-trip.
        let back = json_to_value(&parsed);
        prop_assert_eq!(normalize(&v), normalize(&back));
    }
}

/// NaN and ±inf have no JSON spelling: the writer emits `null` so its
/// output always parses.
#[test]
fn non_finite_numbers_are_written_as_null() {
    let doc = Json::obj(vec![
        ("nan", Json::Num(f64::NAN)),
        ("inf", Json::Num(f64::INFINITY)),
        ("neg_inf", Json::Arr(vec![Json::Num(f64::NEG_INFINITY)])),
    ]);
    let text = doc.to_string();
    assert_eq!(text, r#"{"inf":null,"nan":null,"neg_inf":[null]}"#);
    let back = parse_json(&text).unwrap();
    assert_eq!(
        back,
        Json::obj(vec![("inf", Json::Null), ("nan", Json::Null), ("neg_inf", Json::Arr(vec![Json::Null]))])
    );
}

/// Collapse float values to their shortest-text representation so JSON
/// round-trips compare stably.
fn normalize(v: &Value) -> Value {
    match v {
        Value::Float(f) => Value::Float(format!("{f}").parse().unwrap()),
        Value::List(x) => Value::List(x.iter().map(normalize).collect()),
        Value::Set(x) => Value::set(x.iter().map(normalize).collect()),
        Value::Composite(x) => Value::Composite(x.iter().map(normalize).collect()),
        Value::Map(m) => Value::Map(m.iter().map(|(k, v)| (normalize(k), normalize(v))).collect()),
        other => other.clone(),
    }
}
