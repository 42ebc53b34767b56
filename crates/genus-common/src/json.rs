//! A minimal JSON value model, writer, and parser.
//!
//! The build environment is offline, so the machine-readable diagnostic
//! format (`--error-format=json`) is emitted and round-trip-tested with
//! this self-contained module instead of a third-party crate. It supports
//! the full JSON data model except exotic number forms (emitted numbers
//! are integers; the parser accepts a sign and digits with an optional
//! fraction/exponent, parsed as `f64`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their keys sorted (`BTreeMap`), which
/// is harmless for diagnostics and keeps comparisons deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal, with all required
/// escapes (quotes, backslash, control characters).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// Parses one JSON document, requiring it to consume the whole input.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

/// The string value of `key` when it is the first member of the object
/// `input` opens with, decoded without reading past it: the rest of the
/// input may be anything, malformed or nested past [`MAX_DEPTH`]. Lets
/// the reply to a line the parser refuses still carry the line's id.
#[must_use]
pub fn leading_string_member(input: &str, key: &str) -> Option<String> {
    let mut p = Parser::new(input);
    p.skip_ws();
    p.expect(b'{').ok()?;
    p.skip_ws();
    if p.string().ok()? != key {
        return None;
    }
    p.skip_ws();
    p.expect(b':').ok()?;
    p.skip_ws();
    p.string().ok()
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so the cap keeps it far inside any thread's stack; protocol
/// messages nest two or three levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice:
            // both are ASCII, so they never fall inside a multibyte
            // character and the run ends on a character boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let n = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogates are not paired up; diagnostics never
                            // emit them, so map them to the replacement char.
                            out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Enters one more array or object level, refusing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}`"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        let items = self.items();
        self.depth -= 1;
        items.map(Json::Arr)
    }

    fn items(&mut self) -> Result<Vec<Json>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        let members = self.members();
        self.depth -= 1;
        members.map(Json::Obj)
    }

    fn members(&mut self) -> Result<BTreeMap<String, Json>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leading_string_member_decodes_alone() {
        let deep = format!("{{ \"id\" : \"a\\\"b\", \"x\": {}", "[".repeat(100_000));
        assert!(parse(&deep).is_err());
        assert_eq!(leading_string_member(&deep, "id").as_deref(), Some("a\"b"));
        assert_eq!(leading_string_member(r#"{"x":"1","id":"a"}"#, "id"), None);
        assert_eq!(leading_string_member(r#"{"id":7}"#, "id"), None);
        assert_eq!(leading_string_member(r#"["id","a"]"#, "id"), None);
    }

    #[test]
    fn escape_round_trips() {
        let raw = "a \"quote\"\\ and\nnewline\ttab \u{1} unicode é";
        let lit = escape(raw);
        assert_eq!(parse(&lit).unwrap(), Json::Str(raw.to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, -2.5, true, null], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_num(), Some(1.0));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_num(),
            Some(-2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn decodes_a_megabyte_string_in_linear_time() {
        // Runs of ASCII and multibyte characters between escapes.
        let piece = "plain ascii é ü 漢字 \"quoted\" back\\slash\n\t\u{1} 🦀 ";
        let raw = piece.repeat((1 << 20) / piece.len() + 1);
        let lit = escape(&raw);
        assert!(lit.len() > 1 << 20);
        let start = std::time::Instant::now();
        assert_eq!(parse(&lit).unwrap(), Json::Str(raw));
        // Quadratic decoding took minutes at this size; linear takes
        // milliseconds even unoptimized.
        assert!(start.elapsed().as_secs() < 10, "{:?}", start.elapsed());
        let v = parse(r#""\u00e9\u6f22 a\/b""#).unwrap();
        assert_eq!(v.as_str(), Some("é漢 a/b"));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let nest =
            |n: usize, open: &str, close: &str| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1, "[", "]")).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(parse(&nest(MAX_DEPTH, "{\"k\":", "}")).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1, "{\"k\":", "}")).is_err());
        // A million levels is refused without recursing that deep.
        assert!(parse(&nest(1_000_000, "[", "]")).is_err());
        // The depth is per path, not per document.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1, "[", "]"); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
