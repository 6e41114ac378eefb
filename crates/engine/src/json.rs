//! A minimal JSON value, parser and writer.
//!
//! The offline build has no `serde_json` (the vendored `serde` is a
//! marker-trait stub, see `vendor/README.md`), but the serving front-end
//! needs real JSON on the wire. This module implements the subset the
//! JSON-lines protocol uses: objects (insertion-ordered, so rendered output
//! is stable for golden files), arrays, strings with escape handling,
//! numbers (kept as `u64`/`i64`/`f64` so 64-bit seeds round-trip exactly),
//! booleans and `null`.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (no sign, no fraction, no exponent in the input).
    UInt(u64),
    /// A negative integer (no fraction or exponent in the input).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; entries keep their insertion (and input) order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            JsonValue::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, when exactly representable.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a signed integer, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::UInt(v) => i64::try_from(v).ok(),
            JsonValue::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a float (integers convert losslessly within `2^53`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::UInt(v) => Some(v as f64),
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object's entries, in input/insertion order.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON (no added whitespace) —
    /// the format of the JSON-lines protocol.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::UInt(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            JsonValue::Int(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    // Rust's shortest round-trip formatting; always parses
                    // back to the same f64, so golden files stay stable.
                    let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
                } else {
                    // JSON has no NaN/Infinity.
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
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
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
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

/// Parses one JSON document; trailing non-whitespace input is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first invalid byte.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        text: input,
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.text.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a character boundary of `text`: the parser steps over
    /// ASCII bytes and whole characters only.
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
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The character at the current position.
    fn peek_char(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error(format!(
                "unexpected character {:?}",
                self.peek_char().expect("peek saw a byte")
            ))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix` alone
                            // would also take a sign, as in `\u+041`.
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the protocol;
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full character from the input.
                    let c = self.peek_char().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("invalid number {text:?}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_value_shapes() {
        let input = r#"{"workload":"multimedia","tiles":8,"seed":18446744073709551615,"neg":-3,"ratio":0.25,"ok":true,"nothing":null,"policies":["hybrid","run-time"]}"#;
        let value = parse(input).unwrap();
        assert_eq!(value.get("workload").unwrap().as_str(), Some("multimedia"));
        assert_eq!(value.get("tiles").unwrap().as_usize(), Some(8));
        assert_eq!(value.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(value.get("neg").unwrap(), &JsonValue::Int(-3));
        assert_eq!(value.get("ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("nothing").unwrap(), &JsonValue::Null);
        assert_eq!(value.get("policies").unwrap().as_array().unwrap().len(), 2);
        // The writer reproduces the document byte for byte (insertion order,
        // compact form).
        assert_eq!(value.to_json(), input);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let value = parse(" { \"a\" : \"x\\n\\\"y\\u0041\" , \"b\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(value.get("a").unwrap().as_str(), Some("x\n\"yA"));
        assert_eq!(
            value.get("b").unwrap().as_array().unwrap(),
            &[JsonValue::UInt(1), JsonValue::UInt(2)]
        );
        // Escapes render back out as escapes.
        assert_eq!(value.to_json(), r#"{"a":"x\n\"yA","b":[1,2]}"#);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u004"#] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.message, "invalid \\u escape", "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "+1",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_character_at_the_failing_offset() {
        // U+FFFD is what an invalid UTF-8 byte becomes after lossy decoding;
        // its first byte alone would read as 'ï'.
        for (input, offset, named) in [("\u{FFFD}\u{FFFE}", 0, '\u{FFFD}'), ("[1, é]", 4, 'é')] {
            let err = parse(input).unwrap_err();
            assert_eq!(err.offset, offset, "{input:?}");
            assert_eq!(
                err.message,
                format!("unexpected character {named:?}"),
                "{input:?}"
            );
        }
        // Inside strings every character is taken whole.
        assert_eq!(
            parse("\"é\u{FFFD}x\"").unwrap().as_str(),
            Some("é\u{FFFD}x")
        );
    }

    #[test]
    fn signed_accessor_covers_both_integer_widths() {
        assert_eq!(JsonValue::UInt(7).as_i64(), Some(7));
        assert_eq!(JsonValue::Int(-7).as_i64(), Some(-7));
        assert_eq!(JsonValue::UInt(u64::MAX).as_i64(), None);
        assert_eq!(JsonValue::Float(1.5).as_i64(), None);
    }

    #[test]
    fn numbers_keep_their_integer_width() {
        assert_eq!(parse("0").unwrap(), JsonValue::UInt(0));
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            JsonValue::UInt(9_223_372_036_854_775_808)
        );
        assert_eq!(parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(JsonValue::Float(f64::NAN).to_json(), "null");
    }

    #[test]
    fn float_rendering_round_trips() {
        for v in [0.1, 1.0 / 3.0, 1e-12, 123456.789] {
            let rendered = JsonValue::Float(v).to_json();
            assert_eq!(rendered.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }
}
