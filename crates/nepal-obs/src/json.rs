//! The workspace's one JSON codec: the [`Json`] value, its writer and its
//! parser.
//!
//! Every JSON document Nepal produces — the Gremlin backend's GraphSON-lite
//! wire frames, every telemetry route, qlog lines, diagnostics bundles and
//! the bench reports — is built as a [`Json`] tree and serialised once by
//! [`write_json`] (or `Display`). Output is compact, object keys come out
//! sorted (`Obj` is a `BTreeMap`, which also keeps snapshot tests
//! deterministic), and a non-finite number is written as `null`, so
//! whatever the writer emits [`parse_json`] reads back.
//!
//! Numbers are `f64`: integers are exact up to 2⁵³. A 64-bit identifier
//! (fingerprint, digest) travels as its hex string ([`Json::hex`]), never
//! as a number.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

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
    /// An object from `(key, value)` pairs; a repeated key keeps the last
    /// value.
    pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A 64-bit id (fingerprint, digest) as its 16-digit lowercase hex
    /// string — the one textual form every surface uses for it.
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:016x}"))
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

from_number!(f64, u16, u32, u64, usize, i64);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// The one JSON string escaper: quote, backslash and every control
/// character are escaped; everything else (non-ASCII included) passes
/// through as UTF-8.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_json(self, &mut s);
        f.write_str(&s)
    }
}

/// Serialize a JSON value (compact, keys sorted) onto `out`.
pub fn write_json(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // NaN and ±inf have no JSON spelling.
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => write_str(s, out),
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
                write_str(k, out);
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
    fn escapes_quotes_backslashes_and_control_chars() {
        let j = Json::from("a\"b\\c\nd\t\u{1}é");
        assert_eq!(j.to_string(), r#""a\"b\\c\nd\t\u0001é""#);
        assert_eq!(parse_json(&j.to_string()).unwrap(), j);
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
