//! Minimal JSON implementation for the GraphSON-style wire protocol.
//!
//! The Gremlin backend's whole point (per the paper's §5.2 and this
//! reproduction's constraints — there is no mature Rust Gremlin client) is
//! the protocol layer itself, so the JSON codec is implemented here rather
//! than pulled in as a dependency. Objects use a `BTreeMap` so serialized
//! output is deterministic (important for snapshot tests).

use std::collections::BTreeMap;
use std::fmt;

use nepal_schema::Value;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(m) => m.get_mut(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|f| f as u64)
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|f| f as i64)
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_json(self, &mut s);
        f.write_str(&s)
    }
}

/// Serialize a JSON value to a string.
pub fn write_json(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => escape(s, out),
        Json::Arr(a) => {
            out.push('[');
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(x, out);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(k, out);
                out.push(':');
                write_json(v, out);
            }
            out.push('}');
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
        Err(JsonError { pos: self.i, msg: msg.to_string() })
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", c as char))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            break;
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
                Ok(Json::Arr(a))
            }
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    let v = self.value()?;
                    m.insert(k, v);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            break;
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
                Ok(Json::Obj(m))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("unexpected character"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| JsonError { pos: self.i, msg: "bad \\u".into() })?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError { pos: self.i, msg: "bad \\u".into() })?;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one go: both
                    // are ASCII, so the run ends on a char boundary and is
                    // validated once.
                    let start = self.i;
                    while self.i < self.b.len() && !matches!(self.b[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| JsonError { pos: start, msg: "invalid utf8".into() })?;
                    s.push_str(run);
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.i += 1;
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        txt.parse::<f64>().map(Json::Num).map_err(|_| JsonError { pos: start, msg: "bad number".into() })
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = P { b: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return p.err("trailing input");
    }
    Ok(v)
}

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
    fn round_trips_documents() {
        for src in [
            r#"{"a":1,"b":[true,null,"x"],"c":{"d":2.5}}"#,
            r#"[]"#,
            r#"{"requestId":"r-1","status":{"code":206},"result":{"data":[1,2]}}"#,
            r#""esc \" \\ \n A""#,
        ] {
            let j = parse_json(src).unwrap();
            let out = j.to_string();
            let j2 = parse_json(&out).unwrap();
            assert_eq!(j, j2, "round trip failed for {src}");
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12abc").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        assert!(parse_json(r#""unterminated"#).is_err());
        assert!(parse_json("[1] trailing").is_err());
    }

    #[test]
    fn integers_serialized_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

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

    #[test]
    fn megabyte_string_heavy_document_round_trips() {
        // Escapes and multibyte characters in every string; a decoder that
        // rescans the rest of the buffer per character needs about a minute.
        let label = |i: usize| Json::Str(format!("vm-{i} \"q\" \\ \t é ☃ {}", "x".repeat(48)));
        let doc =
            Json::Arr((0..16_000).map(|i| Json::obj(vec![("id", Json::Num(i as f64)), ("label", label(i))])).collect());
        let text = doc.to_string();
        assert!(text.len() >= 1 << 20, "document is only {} bytes", text.len());
        assert_eq!(parse_json(&text).unwrap(), doc);
    }

    #[test]
    fn unicode_survives() {
        let j = parse_json(r#""héllo ☃""#).unwrap();
        assert_eq!(j, Json::Str("héllo ☃".into()));
        let out = j.to_string();
        assert_eq!(parse_json(&out).unwrap(), j);
    }
}
