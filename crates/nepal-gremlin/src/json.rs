//! GraphSON-lite codecs between Nepal [`Value`]s and JSON, for the
//! Gremlin backend's wire protocol (§5.2).
//!
//! The JSON value type, writer and parser are the workspace's single codec
//! in `nepal_obs::json`, re-exported here so the protocol layer and its
//! callers keep one import path. This module adds only the tagging that
//! makes non-JSON-native values (timestamps, IPs, sets, maps, composites,
//! integers beyond 2⁵³) round-trip losslessly.

use nepal_schema::Value;

pub use nepal_obs::json::{parse_json, Json};

// ---------------------------------------------------------------------
// Value ↔ Json codecs (GraphSON-lite tagging for non-JSON-native types)
// ---------------------------------------------------------------------

/// Encode a Nepal [`Value`] as JSON. Timestamps, IPs, sets, maps, and
/// composites get one-key tag objects so decoding is lossless.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        // JSON numbers are f64: integers beyond 2^53 would silently lose
        // precision, so they travel as tagged strings.
        Value::Int(i) if i.unsigned_abs() <= (1 << 53) => Json::Num(*i as f64),
        Value::Int(i) => Json::obj(vec![("@i", Json::Str(i.to_string()))]),
        Value::Float(f) => Json::obj(vec![("@f", Json::Num(*f))]),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Ts(t) => Json::obj(vec![("@ts", Json::Num(*t as f64))]),
        Value::Ip(ip) => Json::obj(vec![("@ip", Json::Str(ip.to_string()))]),
        Value::List(items) => Json::Arr(items.iter().map(value_to_json).collect()),
        Value::Set(items) => Json::obj(vec![("@set", Json::Arr(items.iter().map(value_to_json).collect()))]),
        Value::Map(m) => Json::obj(vec![(
            "@map",
            Json::Arr(m.iter().map(|(k, v)| Json::Arr(vec![value_to_json(k), value_to_json(v)])).collect()),
        )]),
        Value::Composite(fields) => Json::obj(vec![("@comp", Json::Arr(fields.iter().map(value_to_json).collect()))]),
    }
}

/// Decode JSON back into a [`Value`].
pub fn json_to_value(j: &Json) -> Value {
    match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(n) => Value::Int(*n as i64),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Arr(a) => Value::List(a.iter().map(json_to_value).collect()),
        Json::Obj(m) => {
            if m.len() == 1 {
                let (k, v) = m.iter().next().unwrap();
                match (k.as_str(), v) {
                    ("@f", Json::Num(f)) => return Value::Float(*f),
                    ("@i", Json::Str(s)) => {
                        if let Ok(i) = s.parse() {
                            return Value::Int(i);
                        }
                    }
                    ("@ts", Json::Num(t)) => return Value::Ts(*t as i64),
                    ("@ip", Json::Str(s)) => {
                        if let Ok(ip) = s.parse() {
                            return Value::Ip(ip);
                        }
                    }
                    ("@set", Json::Arr(a)) => return Value::set(a.iter().map(json_to_value).collect()),
                    ("@map", Json::Arr(a)) => {
                        let mut out = std::collections::BTreeMap::new();
                        for pair in a {
                            if let Json::Arr(kv) = pair {
                                if kv.len() == 2 {
                                    out.insert(json_to_value(&kv[0]), json_to_value(&kv[1]));
                                }
                            }
                        }
                        return Value::Map(out);
                    }
                    ("@comp", Json::Arr(a)) => return Value::Composite(a.iter().map(json_to_value).collect()),
                    _ => {}
                }
            }
            // Generic object → map of string keys.
            let mut out = std::collections::BTreeMap::new();
            for (k, v) in m {
                out.insert(Value::Str(k.clone()), json_to_value(v));
            }
            Value::Map(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codec_round_trips() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(Value::Str("k".into()), Value::Int(1));
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(1.25),
            Value::Str("hello".into()),
            Value::Ts(1_500_000_000_000_000),
            Value::Ip("10.0.0.1".parse().unwrap()),
            Value::List(vec![Value::Int(1), Value::Str("x".into())]),
            Value::set(vec![Value::Int(2), Value::Int(1)]),
            Value::Map(m),
            Value::Composite(vec![Value::Int(1), Value::Str("if0".into())]),
        ];
        for v in vals {
            let j = value_to_json(&v);
            let text = j.to_string();
            let j2 = parse_json(&text).unwrap();
            assert_eq!(json_to_value(&j2), v, "codec failed for {v:?}");
        }
    }
}
