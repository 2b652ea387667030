//! A minimal JSON writer and reader — just enough for remark lines,
//! metrics snapshots, and trace documents, with correct string escaping
//! and finite-number handling. Hand-rolled so the crate stays
//! dependency-free.

use std::fmt::Write as _;

/// Escapes `s` into `out` as the *contents* of a JSON string (no
/// surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Integral values print without a fractional part for stability
        // across platforms.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one JSON object: `{"k":v,…}`.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    any: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned-integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim.
    pub fn field_raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (k, item) in items.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// A parsed JSON value.
///
/// Objects keep their fields in document order as a `Vec` of pairs —
/// the artifacts this crate reads are emitted with sorted keys already,
/// and preserving order keeps round-trip diffs faithful.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.trunc() == *n && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up a field by name, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The required string field `key` (artifact parsers).
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        let v = self.get(key).and_then(Value::as_str);
        Ok(v.ok_or_else(|| format!("missing string field {key:?}"))?
            .to_string())
    }

    /// The required non-negative integral field `key`.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key).and_then(Value::as_u64);
        v.ok_or_else(|| format!("missing numeric field {key:?}"))
    }

    /// The required numeric field `key`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key).and_then(Value::as_f64);
        v.ok_or_else(|| format!("missing numeric field {key:?}"))
    }

    /// The required boolean field `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        let v = self.get(key).and_then(Value::as_bool);
        v.ok_or_else(|| format!("missing boolean field {key:?}"))
    }

    /// The required array field `key`.
    pub fn array_field(&self, key: &str) -> Result<&Vec<Value>, String> {
        let v = self.get(key).and_then(Value::as_array);
        v.ok_or_else(|| format!("missing array field {key:?}"))
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII in \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Artifacts only escape control characters, so
                            // surrogate pairs never occur; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unexpected end in string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("héllo"), "\"héllo\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(3.5), "3.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_and_array() {
        let mut o = ObjectWriter::new();
        o.field_str("name", "x\"y")
            .field_u64("n", 7)
            .field_f64("r", 0.5)
            .field_raw("list", &array(vec!["1".into(), "2".into()]));
        assert_eq!(
            o.finish(),
            "{\"name\":\"x\\\"y\",\"n\":7,\"r\":0.5,\"list\":[1,2]}"
        );
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut o = ObjectWriter::new();
        o.field_str("name", "x\"y\nz")
            .field_u64("n", 7)
            .field_f64("r", 0.5)
            .field_raw(
                "list",
                &array(vec!["1".into(), "null".into(), "true".into()]),
            );
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("x\"y\nz"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("r").unwrap().as_f64(), Some(0.5));
        let list = v.get("list").unwrap().as_array().unwrap();
        assert_eq!(list[0], Value::Number(1.0));
        assert_eq!(list[1], Value::Null);
        assert_eq!(list[2], Value::Bool(true));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_handles_nesting_and_numbers() {
        let v = parse(" {\"a\": [ {\"b\": -2.5e3}, [] ], \"c\": {} } ").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].get("b").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(a[1], Value::Array(vec![]));
        assert_eq!(v.get("c"), Some(&Value::Object(vec![])));
        assert_eq!(parse("\"h\\u00e9llo\"").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn object_fields_preserve_document_order() {
        let v = parse("{\"z\":1,\"a\":2}").unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
        assert!(v.get("missing").is_none());
    }
}
