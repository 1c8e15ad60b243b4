//! A hand-rolled JSON codec (the build environment has no crates.io access,
//! so `serde_json` is not available; the vendored `serde` stub only provides
//! marker derives).
//!
//! The decoder is a recursive-descent parser over UTF-8 input with a hard
//! nesting-depth limit, so adversarial bodies (`[[[[…`) fail with a clean
//! [`JsonError`] instead of overflowing the connection thread's stack.  The
//! encoder prints `f64` numbers with Rust's shortest-round-trip `Display`, so
//! every finite value survives encode → decode bit-exactly — the property
//! the service's "bit-identical to a direct engine call" guarantee rests on.

use std::fmt;

/// Maximum nesting depth the parser accepts before bailing out.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// which keeps encoding deterministic and duplicate keys detectable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (JSON has a single number type; `u64`s beyond 2^53
    /// would lose precision, which the API layer's value ranges never reach).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => encode_number(*n, out),
            Json::String(s) => encode_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Encodes a number; non-finite values (which JSON cannot represent) become
/// `null`, matching the common lenient-encoder convention.
fn encode_number(n: f64, out: &mut String) {
    if n.is_finite() {
        // Rust's Display for f64 prints the shortest decimal string that
        // parses back to the same bits — exactly what round-tripping needs.
        out.push_str(&n.to_string());
    } else {
        out.push_str("null");
    }
}

fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A decoding error, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (exactly one value plus whitespace).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_whitespace();
    let value = p.parse_value(0)?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

/// Checks the strict JSON number grammar:
/// `-? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(text: &str) -> bool {
    let mut chars = text.as_bytes();
    if let [b'-', rest @ ..] = chars {
        chars = rest;
    }
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    // Integer part: '0' alone or a non-zero leading digit run.
    let int_len = digits(chars);
    if int_len == 0 || (int_len > 1 && chars[0] == b'0') {
        return false;
    }
    chars = &chars[int_len..];
    if let [b'.', rest @ ..] = chars {
        let frac_len = digits(rest);
        if frac_len == 0 {
            return false;
        }
        chars = &rest[frac_len..];
    }
    if let [b'e' | b'E', rest @ ..] = chars {
        let rest = match rest {
            [b'+' | b'-', r @ ..] => r,
            r => r,
        };
        let exp_len = digits(rest);
        if exp_len == 0 {
            return false;
        }
        chars = &rest[exp_len..];
    }
    chars.is_empty()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        match self.bump() {
            Some(b) if b == byte => Ok(()),
            Some(b) => Err(JsonError {
                offset: self.pos - 1,
                message: format!("expected '{}', found '{}'", byte as char, b as char),
            }),
            None => Err(self.error(format!("expected '{}', found end of input", byte as char))),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.error(format!("unexpected character '{}'", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{literal}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // JSON requires at least one digit before any '.' or exponent.
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected a digit"));
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scanned range is sign/digit/dot/exponent ASCII, so this cannot
        // fail; a decoder must still not be able to panic, so route it as a
        // (unreachable) parse error instead of asserting.
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(JsonError {
                offset: start,
                message: "non-ASCII byte in number".into(),
            });
        };
        // Rust's f64 parser is laxer than JSON ("1.", ".5", "01" all parse),
        // so validate the JSON number grammar before handing it over.
        if !is_json_number(text) {
            return Err(JsonError {
                offset: start,
                message: format!("malformed number '{text}'"),
            });
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            Ok(_) => Err(JsonError {
                offset: start,
                message: format!("number '{text}' overflows an f64"),
            }),
            Err(_) => Err(JsonError {
                offset: start,
                message: format!("malformed number '{text}'"),
            }),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate escape"));
                            }
                            let second = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(first)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => {
                        return Err(JsonError {
                            offset: start,
                            message: "invalid escape sequence".into(),
                        })
                    }
                },
                Some(b) if b < 0x20 => {
                    return Err(JsonError {
                        offset: start,
                        message: "unescaped control character in string".into(),
                    })
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence is
                    // valid — find its end and push the char.
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    // The input arrived as a &str, so the sequence is valid
                    // UTF-8; still surface a parse error rather than assert.
                    let Ok(s) = std::str::from_utf8(&self.bytes[start..end]) else {
                        return Err(JsonError {
                            offset: start,
                            message: "invalid UTF-8 in string".into(),
                        });
                    };
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                Some(_) => {
                    self.pos -= 1;
                    return Err(self.error("expected ',' or ']' in array"));
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key \"{key}\"")));
            }
            self.skip_whitespace();
            self.expect_byte(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(fields)),
                Some(_) => {
                    self.pos -= 1;
                    return Err(self.error("expected ',' or '}' in object"));
                }
                None => return Err(self.error("unterminated object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::String("quote\" back\\ tab\t nl\n unicode→ é \u{1}".into());
        let text = original.encode();
        assert_eq!(parse(&text).unwrap(), original);
        // Explicit escape forms parse too.
        assert_eq!(
            parse(r#""\u00e9 \ud83d\ude00 \/""#).unwrap(),
            Json::String("é 😀 /".into())
        );
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for n in [
            0.0,
            -0.0,
            1.0,
            3.5,
            0.1,
            1e-6,
            123_456_789.123_456_79,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.2250738585072014e-308,
        ] {
            let text = Json::Number(n).encode();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n} via {text}");
        }
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "tru",
            "nul",
            "+1",
            ".5",
            "1.",
            "01",
            "-",
            "1e",
            "1e+",
            "1.2.3",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"ctrl \u{1} char\"",
            "\"\\ud800\"",
            "1 2",
            "{\"a\":1} extra",
            "{\"dup\":1,\"dup\":2}",
            "nan",
            "Infinity",
            "1e999",
        ] {
            let result = parse(bad);
            assert!(result.is_err(), "{bad:?} must not parse");
            // Errors format without panicking.
            let _ = result.unwrap_err().to_string();
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let balanced = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(parse(&balanced).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::String("7".into()).as_u64(), None);
    }

    #[test]
    fn object_helpers() {
        let v = parse(r#"{"x": 1, "y": true}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("y").unwrap().as_bool(), Some(true));
        assert!(v.get("z").is_none());
        assert!(Json::Null.get("x").is_none());
        assert_eq!(Json::Bool(true).as_f64(), None);
        assert_eq!(Json::Number(1.0).as_str(), None);
        assert_eq!(Json::Null.as_array(), None);
        assert_eq!(Json::Null.as_bool(), None);
    }

    #[test]
    fn encoding_is_deterministic_and_compact() {
        let v = Json::Object(vec![
            ("b".into(), Json::Number(2.0)),
            ("a".into(), Json::Array(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.encode(), r#"{"b":2,"a":[null,false]}"#);
        // Non-finite numbers degrade to null instead of emitting invalid JSON.
        assert_eq!(Json::Number(f64::NAN).encode(), "null");
        assert_eq!(Json::Number(f64::INFINITY).encode(), "null");
    }
}
