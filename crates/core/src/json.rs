//! Minimal JSON value model, parser and writer.
//!
//! The platform's serialization needs are narrow — JSON-lines ingest
//! ([§2.2] importers), alignment-config files, the checkpoint manifest and
//! the operation log's dump form — and the build environment has no access to
//! crates.io, so this module replaces `serde`/`serde_json` with a small
//! hand-rolled implementation. Object keys are stored in a `BTreeMap`, so
//! key iteration is alphabetical (matching the behaviour the importers and
//! tests were written against).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys iterate alphabetically.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl AsRef<str>) -> Json {
        Json::Str(s.as_ref().to_string())
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload; floats with integral value are not coerced.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member access (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // Keep a fractional marker so the value re-parses as a
                    // float — for *every* whole float, else magnitudes with
                    // no fractional digits (≥ 2^53-ish) would come back as
                    // ints and break wire round-trips.
                    if f.fract() == 0.0 {
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&f.to_string());
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Object(map) => {
                let entries: Vec<(&String, &Json)> = map.iter().collect();
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    let (k, v) = entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Parse one JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is on the 'u'.
        let hex4 = |p: &Self, at: usize| -> Result<u32, JsonError> {
            let slice = p
                .bytes
                .get(at..at + 4)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let s = std::str::from_utf8(slice).map_err(|_| p.err("bad \\u escape"))?;
            u32::from_str_radix(s, 16).map_err(|_| p.err("bad \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let lo = hex4(self, self.pos + 2)?;
                self.pos += 6;
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            message: "bad number".into(),
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, expected) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("2.5", Json::Float(2.5)),
            ("1e3", Json::Float(1000.0)),
            (r#""hi there""#, Json::str("hi there")),
        ] {
            let parsed = parse(text).unwrap();
            assert_eq!(parsed, expected, "{text}");
            assert_eq!(parse(&parsed.to_string_compact()).unwrap(), expected);
        }
    }

    #[test]
    fn big_u64_sized_ints_survive() {
        // LSNs and entity ids are u64; i64 covers every id the platform
        // mints, and values beyond i64 fall back to float.
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_i64(), Some(9007199254740993));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"b":[1,2,{"x":null}],"a":"z","c":{"k":-1.5}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("z"));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        let round = parse(&v.to_string_compact()).unwrap();
        assert_eq!(round, v);
        let pretty = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(pretty, v);
    }

    #[test]
    fn object_keys_iterate_alphabetically() {
        let v = parse(r#"{"zeta":1,"alpha":2,"mid":3}"#).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" slash\\ newline\n tab\t unicode:\u{1F600}é";
        let json = Json::str(original).to_string_compact();
        assert_eq!(parse(&json).unwrap().as_str(), Some(original));
        // Explicit escape parsing, incl. a surrogate pair.
        let v = parse(r#""aéb😀c\n""#).unwrap();
        assert_eq!(v.as_str(), Some("aéb\u{1F600}c\n"));
    }

    #[test]
    fn errors_carry_position_and_reject_garbage() {
        assert!(parse("{nope").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("").is_err());
        let err = parse("[1, oops]").unwrap_err();
        assert!(err.offset >= 4, "error offset points into the input: {err}");
    }

    #[test]
    fn floats_reserialize_as_floats() {
        let v = Json::Float(3.0);
        assert_eq!(v.to_string_compact(), "3.0");
        assert_eq!(parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
        // Whole floats too large for fractional digits keep their marker:
        // the type must survive a round-trip, not just the magnitude.
        for f in [1e15, 1e16, 9.007_199_254_740_992e15, -1e18] {
            let round = parse(&Json::Float(f).to_string_compact()).unwrap();
            assert_eq!(round, Json::Float(f), "{f}");
        }
    }
}
