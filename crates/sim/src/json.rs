//! The simulator's one JSON module: a value type, a strict parser, the
//! writers every JSON text the crate emits goes through, and [`Fields`], the
//! key-checking reader every spec object is read with.
//!
//! * The parser accepts RFC 8259 JSON and nothing else, nested at most
//!   [`MAX_DEPTH`] deep, so a hostile document is an error, never a stack
//!   overflow.
//! * A number keeps its exact `u64` beside its `f64` when the literal is a
//!   plain run of digits: seeds and slot counts exceed the 2^53 integers an
//!   `f64` holds exactly.
//! * The writers escape every string and render a non-finite `f64` as
//!   `null` (`Display` would print the bare tokens `NaN` and `inf`, which no
//!   JSON reader accepts).

use std::fmt;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A document that is not JSON, or JSON without the shape its reader
/// expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    fn new(message: impl Into<String>) -> Self {
        JsonError(message.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number.
    Number {
        /// The literal read as an `f64`.
        value: f64,
        /// The literal read as a `u64`, when it is a plain run of digits
        /// that fits one.
        integer: Option<u64>,
    },
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parse one complete document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos < text.len() {
            return Err(parser.error("trailing input"));
        }
        Ok(value)
    }

    /// The number's `f64` value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The number's exact value, when it is a non-negative integer literal
    /// (never through `f64`, so 64-bit seeds survive).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number { integer, .. } => *integer,
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object's members.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// What an error message calls this value: scalars verbatim, arrays
    /// and objects by kind.
    fn describe(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Number {
                integer: Some(i), ..
            } => i.to_string(),
            Value::Number { value, .. } => value.to_string(),
            Value::String(s) => quote(s),
            Value::Array(_) => "an array".to_string(),
            Value::Object(_) => "an object".to_string(),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> JsonError {
        JsonError::new(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or('?');
                Err(self.error(&format!("unexpected character {c:?}")))
            }
        }
    }

    fn nested(
        &mut self,
        read: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.pos += 1; // '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected ':' after an object key"));
            }
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(entries));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}' in an object"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']' in an array"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The scan stops only at an ASCII byte or the end of the text,
            // both character boundaries.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("raw control character in a string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.error("invalid escape in a string")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The character of a `\u` escape whose `\u` is consumed: one escape,
    /// or a UTF-16 surrogate pair written as two.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unpaired = "unpaired surrogate in a \\u escape";
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.text[self.pos..].starts_with("\\u") {
                return Err(self.error(unpaired));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error(unpaired));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error(unpaired))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.error("a \\u escape needs four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consume a run of digits; false when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("invalid number"));
        }
        let mut plain = !negative;
        if self.eat(b'.') {
            plain = false;
            if !self.digits() {
                return Err(self.error("invalid number: no digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            plain = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.error("invalid number: no digits in the exponent"));
            }
        }
        let literal = &self.text[start..self.pos];
        let value = literal
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| JsonError::new(format!("number {literal} is out of range")))?;
        Ok(Value::Number {
            value,
            integer: if plain { literal.parse().ok() } else { None },
        })
    }
}

/// An object read as one record: every key is one the record knows, none
/// appears twice, and a getter names the record and the key when the value
/// is missing or of the wrong kind.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    what: &'static str,
    entries: &'a [(String, Value)],
}

impl<'a> Fields<'a> {
    /// Read `value` as the object `what` (named in every error), whose keys
    /// all come from `known`.
    pub fn new(value: &'a Value, what: &'static str, known: &[&str]) -> Result<Self, JsonError> {
        let entries = value.as_object().ok_or_else(|| {
            JsonError::new(format!(
                "{what} must be an object, got {}",
                value.describe()
            ))
        })?;
        for (i, (key, _)) in entries.iter().enumerate() {
            if !known.contains(&key.as_str()) {
                return Err(JsonError::new(format!(
                    "unknown {what} key '{key}' (known: {})",
                    known.join(", ")
                )));
            }
            if entries[..i].iter().any(|(k, _)| k == key) {
                return Err(JsonError::new(format!("duplicate {what} key '{key}'")));
            }
        }
        Ok(Fields { what, entries })
    }

    /// Check that every key present is one of `keys`: the ones that apply
    /// to the `variant` a tag key selected.
    pub fn only(&self, keys: &[&str], variant: &str) -> Result<(), JsonError> {
        match self
            .entries
            .iter()
            .find(|(k, _)| !keys.contains(&k.as_str()))
        {
            Some((key, _)) => Err(JsonError::new(format!(
                "{} key '{key}' does not apply to {variant}",
                self.what
            ))),
            None => Ok(()),
        }
    }

    /// The value under `key`, when present.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn typed<T>(
        &self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<Option<T>, JsonError> {
        let Some(value) = self.get(key) else {
            return Ok(None);
        };
        match read(value) {
            Some(typed) => Ok(Some(typed)),
            None => Err(JsonError::new(format!(
                "{} key '{key}' must be {expected}, got {}",
                self.what,
                value.describe()
            ))),
        }
    }

    fn required<T>(&self, key: &str, value: Option<T>) -> Result<T, JsonError> {
        value.ok_or_else(|| JsonError::new(format!("{} needs key '{key}'", self.what)))
    }

    /// An optional non-negative integer.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, JsonError> {
        self.typed(key, "a non-negative integer", Value::as_u64)
    }

    /// A required non-negative integer.
    pub fn u64(&self, key: &str) -> Result<u64, JsonError> {
        self.required(key, self.opt_u64(key)?)
    }

    /// A required non-negative integer that fits a `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, JsonError> {
        let value = self.typed(key, "a non-negative integer", |v| {
            v.as_u64().and_then(|i| usize::try_from(i).ok())
        })?;
        self.required(key, value)
    }

    /// An optional number.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, JsonError> {
        self.typed(key, "a number", Value::as_f64)
    }

    /// A required number.
    pub fn f64(&self, key: &str) -> Result<f64, JsonError> {
        self.required(key, self.opt_f64(key)?)
    }

    /// An optional string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&'a str>, JsonError> {
        self.typed(key, "a string", Value::as_str)
    }

    /// A required string.
    pub fn str(&self, key: &str) -> Result<&'a str, JsonError> {
        self.required(key, self.opt_str(key)?)
    }

    /// An optional array.
    pub fn opt_array(&self, key: &str) -> Result<Option<&'a [Value]>, JsonError> {
        self.typed(key, "an array", Value::as_array)
    }
}

/// Append `s` to `out` as a quoted JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Append `v` to `out`: the shortest decimal that reads back as `v`, or
/// `null` when `v` is not finite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An unsigned integer the writers render in decimal.
pub trait Unsigned: Copy + fmt::Display {}

impl Unsigned for u32 {}
impl Unsigned for u64 {}
impl Unsigned for usize {}

/// Writes one JSON object, member by member, onto a string.  A compact
/// object puts nothing between tokens; a spec file's top level puts each
/// member on a line of its own, indented two spaces, as `"key": value`.
/// Nested objects and arrays are always compact.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    members: usize,
    lines: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open a compact object at the end of `out`.
    pub fn compact(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter {
            out,
            members: 0,
            lines: false,
        }
    }

    /// Open a one-member-per-line object at the end of `out`.
    pub fn lines(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter {
            out,
            members: 0,
            lines: true,
        }
    }

    /// Write the separator and `key`; the value goes onto the string
    /// handed back.
    fn key(&mut self, key: &str) -> &mut String {
        match (self.lines, self.members) {
            (true, 0) => self.out.push_str("\n  "),
            (true, _) => self.out.push_str(",\n  "),
            (false, 0) => {}
            (false, _) => self.out.push(','),
        }
        self.members += 1;
        write_str(self.out, key);
        self.out.push_str(if self.lines { ": " } else { ":" });
        &mut *self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_str(self.key(key), value);
        self
    }

    /// An integer member.
    pub fn uint(&mut self, key: &str, value: impl Unsigned) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// An integer member that is `null` when absent.
    pub fn opt_uint(&mut self, key: &str, value: Option<impl Unsigned>) -> &mut Self {
        match value {
            Some(value) => self.uint(key, value),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// A number member (`null` when not finite).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        write_f64(self.key(key), value);
        self
    }

    /// A compact object member, written by `body`.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        let mut child = ObjectWriter::compact(self.key(key));
        body(&mut child);
        child.close();
        self
    }

    /// An array member, written by `body`.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        let mut child = ArrayWriter::open(self.key(key));
        body(&mut child);
        child.close();
        self
    }

    /// Close the object.
    pub fn close(self) {
        self.out.push_str(if self.lines { "\n}" } else { "}" });
    }
}

/// Writes one compact JSON array, item by item, onto a string.
#[derive(Debug)]
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    items: usize,
}

impl<'a> ArrayWriter<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('[');
        ArrayWriter { out, items: 0 }
    }

    fn item(&mut self) -> &mut String {
        if self.items > 0 {
            self.out.push(',');
        }
        self.items += 1;
        &mut *self.out
    }

    /// A string item.
    pub fn str(&mut self, value: &str) -> &mut Self {
        write_str(self.item(), value);
        self
    }

    /// An integer item.
    pub fn uint(&mut self, value: impl Unsigned) -> &mut Self {
        let _ = write!(self.item(), "{value}");
        self
    }

    /// A number item (`null` when not finite).
    pub fn f64(&mut self, value: f64) -> &mut Self {
        write_f64(self.item(), value);
        self
    }

    /// A compact object item, written by `body`.
    pub fn object(&mut self, body: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        let mut child = ObjectWriter::compact(self.item());
        body(&mut child);
        child.close();
        self
    }

    /// An array item, written by `body`.
    pub fn array(&mut self, body: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        let mut child = ArrayWriter::open(self.item());
        body(&mut child);
        child.close();
        self
    }

    fn close(self) {
        self.out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member<'a>(value: &'a Value, key: &str) -> &'a Value {
        let entries = value.as_object().unwrap();
        &entries.iter().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn parses_every_kind_of_value() {
        let doc = Value::parse(
            " {\"a\":[1,2.5,-3e2,null,true,false],\"b\":{\"c\":\"x\\ny\\u0041\"},\"d\":[]} ",
        )
        .unwrap();
        let a = member(&doc, "a").as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3], Value::Null);
        assert_eq!(a[4], Value::Bool(true));
        assert_eq!(member(member(&doc, "b"), "c").as_str(), Some("x\nyA"));
        assert_eq!(member(&doc, "d").as_array().map(<[_]>::len), Some(0));
    }

    #[test]
    fn integers_keep_every_bit_and_only_plain_digits_are_integers() {
        let max = Value::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        let past = Value::parse("18446744073709551616").unwrap();
        assert_eq!(past.as_u64(), None);
        assert_eq!(past.as_f64(), Some(18446744073709551616.0));
        for not_integer in ["1e3", "1.0", "-0", "-4"] {
            let value = Value::parse(not_integer).unwrap();
            assert_eq!(value.as_u64(), None, "{not_integer}");
        }
    }

    #[test]
    fn rejects_everything_that_is_not_json() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "\"abc",
            "\"a\u{1}b\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "NaN",
            "inf",
            "-",
            "01",
            "+1",
            ".5",
            "1.",
            "1e",
            "1e999",
            "tru",
            "nul",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Value::parse(&deep).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(Value::parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn strings_round_trip_through_the_writer() {
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\r\te",
            "\u{1}\u{1f}",
            "ünïcödé ✓ 🦀",
            "/",
        ] {
            assert_eq!(Value::parse(&quote(s)).unwrap().as_str(), Some(s), "{s:?}");
        }
        // A surrogate pair decodes to its supplementary-plane character.
        let crab = Value::parse("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(crab.as_str(), Some("🦀"));
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let mut out = String::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1 + 0.2, 1.0] {
            write_f64(&mut out, v);
            out.push(' ');
        }
        assert_eq!(out, "null null null 0.30000000000000004 1 ");
    }

    #[test]
    fn writers_produce_the_compact_and_the_line_layout() {
        let mut out = String::new();
        let mut top = ObjectWriter::lines(&mut out);
        top.str("name", "a\"b").uint("n", 8usize);
        top.object("inner", |o| {
            o.f64("x", 0.5).opt_uint("gone", None::<u64>);
            o.array("items", |a| {
                a.array(|pair| {
                    pair.uint(1u64).uint(2u64);
                });
                a.object(|e| {
                    e.str("k", "v");
                });
                a.str("s").f64(f64::NAN);
            });
        });
        top.close();
        assert_eq!(
            out,
            "{\n  \"name\": \"a\\\"b\",\n  \"n\": 8,\n  \
             \"inner\": {\"x\":0.5,\"gone\":null,\"items\":[[1,2],{\"k\":\"v\"},\"s\",null]}\n}"
        );
        assert!(Value::parse(&out).is_ok());
    }

    #[test]
    fn fields_reject_unknown_duplicate_missing_and_mistyped_keys() {
        let known = ["a", "b", "s"];
        let read = |text: &str| -> Result<(), JsonError> {
            let value = Value::parse(text).unwrap();
            let fields = Fields::new(&value, "thing", &known)?;
            fields.u64("a")?;
            fields.opt_str("s")?;
            Ok(())
        };
        assert!(read(r#"{"a":1,"s":"x"}"#).is_ok());
        for (bad, says) in [
            (r#"{"a":1,"c":2}"#, "unknown thing key 'c' (known: a, b, s)"),
            (r#"{"a":1,"a":2}"#, "duplicate thing key 'a'"),
            (r#"{"b":1}"#, "thing needs key 'a'"),
            (
                r#"{"a":1.5}"#,
                "thing key 'a' must be a non-negative integer, got 1.5",
            ),
            (r#"{"a":1,"s":3}"#, "thing key 's' must be a string, got 3"),
            (r#"[1]"#, "thing must be an object, got an array"),
        ] {
            assert_eq!(read(bad).unwrap_err().to_string(), says, "{bad}");
        }
        let value = Value::parse(r#"{"a":1,"b":2}"#).unwrap();
        let fields = Fields::new(&value, "thing", &known).unwrap();
        assert!(fields.only(&["a", "b"], "kind 'x'").is_ok());
        assert_eq!(
            fields.only(&["a"], "kind 'x'").unwrap_err().to_string(),
            "thing key 'b' does not apply to kind 'x'"
        );
    }
}
