//! Minimal JSON: just enough to emit and parse [`crate::RunReport`]s.
//!
//! The workspace is offline and has no `serde`, so this module
//! hand-rolls the subset of JSON the reports need:
//! objects, arrays, strings, numbers, booleans, and null. Emission is
//! deterministic (objects are `BTreeMap`s, floats use Rust's shortest
//! round-trip formatting), which keeps checked-in baselines diff-stable.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed as (and emits as) an unsigned integer —
    /// counters and bucket counts must round-trip exactly even beyond
    /// 2⁵³, where a detour through `f64` would corrupt them.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-sorted for stable emission.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `u64`, if it is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen; `null` maps to NaN, the
    /// encoding this module uses for non-finite floats).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Builds a [`Value::Float`], encoding non-finite values as `null`
    /// (JSON has no NaN/∞ literals).
    #[must_use]
    pub fn float(x: f64) -> Value {
        if x.is_finite() {
            Value::Float(x)
        } else {
            Value::Null
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset of the first
    /// syntax error, including trailing garbage after the document.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::UInt(n) => write!(f, "{n}"),
            Value::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float format.
                    write!(f, "{x:?}")
                } else {
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Reports only emit BMP escapes for control
                            // chars; surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Plain non-negative integers round-trip as u64; everything else
        // (sign, fraction, exponent) goes through f64.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_structured() {
        let src = r#"{"a":[1,2.5,"x",true,null],"b":{"nested":"\"quoted\"\n"}}"#;
        let v = Value::parse(src).unwrap();
        let emitted = v.to_string();
        assert_eq!(Value::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn big_u64_roundtrips_exactly() {
        let n = u64::MAX - 1;
        let v = Value::parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(v.to_string(), n.to_string());
    }

    #[test]
    fn floats_shortest_roundtrip() {
        for x in [0.1, 1.5, 1e-9, 12345.6789, -2.0] {
            let v = Value::parse(&Value::Float(x).to_string()).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn nonfinite_floats_emit_null() {
        assert_eq!(Value::float(f64::INFINITY), Value::Null);
        assert_eq!(Value::float(f64::NAN).to_string(), "null");
        assert!(Value::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Value::Str("héllo → \"wörld\"\t\u{1}".to_string());
        let round = Value::parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn errors_have_offsets() {
        let e = Value::parse("{\"a\": }").unwrap_err();
        assert!(e.offset > 0);
        assert!(e.to_string().contains("byte"));
        assert!(Value::parse("[1,2] garbage").is_err());
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{\"a\":1,}").is_err());
    }

    #[test]
    fn object_emission_is_key_sorted() {
        let mut m = BTreeMap::new();
        m.insert("z".to_string(), Value::UInt(1));
        m.insert("a".to_string(), Value::UInt(2));
        assert_eq!(Value::Obj(m).to_string(), r#"{"a":2,"z":1}"#);
    }
}
