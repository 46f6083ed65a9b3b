//! The workspace's one JSON layer: a [`Value`] tree, one reader
//! ([`parse`]) and two writers ([`Value::compact`] for wire frames and
//! JSON-lines, [`Value::pretty`] for documents). Hand-rolled, as the
//! build is dependency-free.
//!
//! A number keeps its written text (a parsed `0.7500` writes back as
//! `0.7500`; [`Value::fixed`] renders `{:.3}`-style fields), so readers
//! choose the type: [`Value::as_i64`] refuses a fraction. An object
//! keeps insertion order. The reader rejects containers nested deeper
//! than 64, so a hostile line of `[`s is an error, not a stack overflow.

/// The deepest container nesting [`parse`] accepts; the deepest serve
/// frame (a `batch` request) nests four.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its written text (integer, fraction, or
    /// exponent form).
    Number(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in insertion order. A repeated key is kept;
    /// [`Value::get`] answers with its last occurrence.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::with`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Appends field `key` to an object (a no-op on non-objects).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        if let Value::Object(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// `x` with exactly `decimals` digits after the point (`null` when
    /// `x` is not finite).
    pub fn fixed(x: f64, decimals: usize) -> Value {
        if x.is_finite() {
            Value::Number(format!("{x:.decimals$}"))
        } else {
            Value::Null
        }
    }

    /// Object field lookup (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string behind this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean behind this value, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer behind this value: `None` for non-numbers, for a
    /// fraction or exponent, and outside the `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// One line, no spaces: the form of wire frames and JSON-lines
    /// records.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// A document: every non-empty container opens a new line, two
    /// spaces of indent per level, `"key": value`, and a final newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes `self`; `indent` is `None` for the compact form, else the
    /// current depth's indent of the pretty form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Number(t) => return out.push_str(t),
            Value::Str(s) => return write_str(s, out),
            Value::Array(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Value::Object(f) => (
                '{',
                '}',
                f.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let inner = indent.map(|n| n + 2);
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(n) = inner {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n));
            }
            if let Some(k) = key {
                write_str(k, out);
                out.push_str(if inner.is_some() { ": " } else { ":" });
            }
            v.write(out, inner);
        }
        if let (Some(n), false) = (indent, items.is_empty()) {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n));
        }
        out.push(close);
    }
}

/// The compact form (as [`Value::compact`]), padded to the format's
/// width.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&self.compact())
    }
}

fn write_str(s: &str, out: &mut String) {
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

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n.to_string())
            }
        }
    )*};
}
from_integer!(u8, u32, u64, u128, usize, i64);

/// The shortest text that reads back as `x` (`null` when not finite).
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        if x.is_finite() {
            Value::Number(x.to_string())
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Parses one complete JSON value from `input` (surrounding whitespace
/// allowed, trailing garbage rejected, containers nested at most 64
/// deep).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut r = Reader { s: input, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != input.len() {
        return r.err("trailing garbage");
    }
    Ok(v)
}

struct Reader<'a> {
    s: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'{') => self.container(depth + 1, b'}'),
            Some(b'[') => self.container(depth + 1, b']'),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => self.err(&format!("unexpected byte {:?}", c as char)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if !self.s[self.pos..].starts_with(lit) {
            return self.err("invalid literal");
        }
        self.pos += lit.len();
        Ok(v)
    }

    /// Consumes a run of digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-?digits(.digits)?([eE][+-]?digits)?`, kept as written.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.digits();
        if self.eat(b'.') {
            ok &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits();
        }
        if !ok {
            return Err(format!("invalid number at byte {start}"));
        }
        Ok(Value::Number(self.s[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Quote and backslash are ASCII, so the run before either
            // ends on a character boundary.
            let rest = &self.s[self.pos..];
            let Some(end) = rest.find(['"', '\\']) else {
                return self.err("unterminated string");
            };
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self.s.get(self.pos + 1..self.pos + 5).unwrap_or("");
                    // Surrogates are rejected rather than paired: the
                    // strings read here are queries, ids and names.
                    let digits = hex.bytes().all(|b| b.is_ascii_hexdigit());
                    match u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) {
                        Some(c) if digits => {
                            self.pos += 4;
                            c
                        }
                        _ => return self.err("invalid \\u escape"),
                    }
                }
                _ => return self.err("invalid escape"),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// An array (`close == b']'`) or object (`b'}'`), from its opening
    /// bracket.
    fn container(&mut self, depth: usize, close: u8) -> Result<Value, String> {
        self.pos += 1;
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                if close == b']' {
                    items.push(self.value(depth)?);
                } else {
                    if self.peek() != Some(b'"') {
                        return self.err("expected object key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value(depth)?));
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return self.err(&format!("expected ',' or '{}'", close as char));
                }
            }
        }
        Ok(match close {
            b']' => Value::Array(items),
            _ => Value::Object(fields),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_frame() {
        let v = parse(r#"{"id":"r1","mode":"check","query":"exists y. E(y,y)","timeout_ms":500}"#)
            .unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("timeout_ms").and_then(Value::as_i64), Some(500));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_escapes_nesting_and_negatives() {
        let v = parse(r#"{"s":"a\"b\nA","n":-7,"a":[1,true,null,{"x":2}]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\nA"));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(-7));
        match v.get("a") {
            Some(Value::Array(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_keep_their_text_and_integers_refuse_fractions() {
        for text in ["1.5", "-0.25", "1e3", "2.5E-4", "0.7500"] {
            let v = parse(text).unwrap();
            assert_eq!(v.compact(), text);
            assert_eq!(v.as_i64(), None, "{text} is not an integer");
        }
        for bad in [
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "--1",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::from("é"));
        assert_eq!(Value::fixed(1.9, 3).compact(), "1.900");
        assert_eq!(Value::fixed(f64::NAN, 3), Value::Null);
        assert_eq!(Value::from(f64::INFINITY), Value::Null);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(Value::from("a\"b\\c\nd").compact(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Value::from("\u{1}").compact(), "\"\\u0001\"");
    }

    #[test]
    fn writers_round_trip_and_keep_field_order() {
        let v = Value::object()
            .with("z", "a \"q\"\n\u{1}")
            .with("a", [1u64, 2].into_iter().collect::<Value>())
            .with("e", Value::object())
            .with("n", Option::<u64>::None);
        let compact = r#"{"z":"a \"q\"\n\u0001","a":[1,2],"e":{},"n":null}"#;
        assert_eq!(v.compact(), compact);
        let pretty = "{\n  \"z\": \"a \\\"q\\\"\\n\\u0001\",\n  \"a\": [\n    1,\n    2\n  ],\n  \"e\": {},\n  \"n\": null\n}\n";
        assert_eq!(v.pretty(), pretty);
        assert_eq!(parse(compact).unwrap(), v);
        assert_eq!(parse(pretty).unwrap(), v);
        // A repeated key reads as its last occurrence.
        let dup = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(dup.get("k").and_then(Value::as_i64), Some(2));
    }
}
