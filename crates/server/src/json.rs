//! A small, hardened JSON value type with parsing and rendering.
//!
//! The workspace deliberately vendors no functional serialization crate (the
//! checkpoint format is hand-rolled for the same reason), so the wire layer
//! carries its own ~300-line JSON implementation. It is *hardened before it
//! is general*: parsing enforces a nesting-depth limit, a per-string byte
//! limit, and a per-container item limit, so a malicious frame cannot blow
//! the stack with `[[[[…]]]]` or balloon memory with a single huge token —
//! limits trip as structured [`JsonError`]s, never panics.
//!
//! Numbers are IEEE-754 doubles. Rendering uses Rust's shortest-round-trip
//! float formatting, so `parse(render(v)) == v` bit-for-bit for every finite
//! double (the property suite in `tests/proto_props.rs` proves it); exact
//! 64-bit state (checkpoint accumulators) travels inside strings, exactly as
//! it does in the `flowrel-checkpoint v1` text format.

use std::fmt;

/// Limits enforced while parsing untrusted JSON.
#[derive(Clone, Copy, Debug)]
pub struct JsonLimits {
    /// Maximum nesting depth of arrays/objects.
    pub max_depth: usize,
    /// Maximum byte length of a single string literal (after unescaping).
    pub max_string: usize,
    /// Maximum number of elements in one array or keys in one object.
    pub max_items: usize,
}

impl Default for JsonLimits {
    fn default() -> Self {
        JsonLimits {
            max_depth: 32,
            max_string: 8 << 20,
            max_items: 1 << 16,
        }
    }
}

/// Structured parse failure: what and where (byte offset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the problem was detected.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value. Object keys keep insertion order (no hashing, deterministic
/// rendering).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite IEEE-754 double.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly
    /// (rejects fractions, negatives, and values beyond 2^53 where doubles
    /// stop being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders to compact JSON text. Infinite/NaN numbers render as `null`
    /// (the protocol never produces them; this keeps rendering total).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's Display prints the shortest string that parses
                    // back to the identical double.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience builder for object literals.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn render_string(s: &str, out: &mut String) {
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

/// Parses one JSON document (must consume the whole input, modulo trailing
/// whitespace) under the given limits.
pub fn parse(text: &str, limits: &JsonLimits) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        limits,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    limits: &'a JsonLimits,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > self.limits.max_depth {
            return Err(self.err(format!(
                "nesting depth exceeds the limit of {}",
                self.limits.max_depth
            )));
        }
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparseable number '{text}'")))?;
        if !n.is_finite() {
            return Err(self.err("number overflows a double"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            if out.len() > self.limits.max_string {
                return Err(self.err(format!(
                    "string exceeds the {}-byte limit",
                    self.limits.max_string
                )));
            }
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // surrogate pair: \uXXXX\uXXXX
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + (((hi - 0xd800) as u32) << 10) + (lo - 0xdc00) as u32;
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // consume the whole run of plain bytes up to the next
                    // quote, escape or control byte, validating it once
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    if out.len() + run > self.limits.max_string {
                        return Err(self.err(format!(
                            "string exceeds the {}-byte limit",
                            self.limits.max_string
                        )));
                    }
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        // called with pos at 'u'+1? no: caller advances past 'u' via expect or
        // pos+=1; here pos is at the first hex digit
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u16::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            if items.len() >= self.limits.max_items {
                return Err(self.err(format!(
                    "array exceeds the {}-item limit",
                    self.limits.max_items
                )));
            }
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            if pairs.len() >= self.limits.max_items {
                return Err(self.err(format!(
                    "object exceeds the {}-key limit",
                    self.limits.max_items
                )));
            }
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Json) {
        let text = v.render();
        let back = parse(&text, &JsonLimits::default()).unwrap();
        assert_eq!(v, back, "render: {text}");
    }

    #[test]
    fn roundtrips_scalars_and_containers() {
        roundtrip(Json::Null);
        roundtrip(Json::Bool(true));
        roundtrip(Json::Num(-0.0));
        roundtrip(Json::Num(1.5e-300));
        roundtrip(Json::Num(f64::MAX));
        roundtrip(Json::Str("líne\n\"q\"\\ \u{1}\u{1F600}".into()));
        roundtrip(obj([
            ("a", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b", Json::Obj(vec![])),
        ]));
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = parse(r#""A😀\/""#, &JsonLimits::default()).unwrap();
        assert_eq!(v, Json::Str("A\u{1F600}/".into()));
    }

    #[test]
    fn depth_limit_trips_not_overflows() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let e = parse(&deep, &JsonLimits::default()).unwrap_err();
        assert!(e.message.contains("depth"));
    }

    #[test]
    fn item_and_string_limits_trip() {
        let limits = JsonLimits {
            max_items: 3,
            max_string: 4,
            ..Default::default()
        };
        assert!(parse("[1,2,3,4]", &limits)
            .unwrap_err()
            .message
            .contains("item"));
        assert!(parse(r#""abcdef""#, &limits)
            .unwrap_err()
            .message
            .contains("byte limit"));
        assert!(parse("[1,2,3]", &limits).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "truefalse",
            "1..2",
            "\"",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "[1] x",
            "\u{7f}",
        ] {
            assert!(parse(bad, &JsonLimits::default()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn u64_extraction_is_exact_only() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(42.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
    }
}
