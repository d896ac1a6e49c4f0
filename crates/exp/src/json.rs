//! Minimal hand-rolled JSON: string escaping for the artifact emitters
//! and a small recursive-descent parser for the scenario-service wire
//! envelopes.
//!
//! The workspace deliberately carries no serde: every artifact
//! (`BENCH_*.json`, `FIG*_data.json`, `SCENARIO_report.json`) is emitted
//! with plain `format!` so its byte layout is pinned by tests. The
//! streaming scenario service (`mint-serve`) needs the other direction
//! too — its submit/cancel envelopes arrive as JSON lines — so this
//! module centralises both halves: [`escape`]/[`quote`] for writers and
//! [`Json::parse`] for readers.
//!
//! The parser covers the full JSON grammar (objects, arrays, strings
//! with `\uXXXX` escapes incl. surrogate pairs, numbers, literals) but
//! keeps the representation deliberately small: numbers are `f64`, and
//! object members stay in document order in a `Vec` (duplicate keys:
//! first wins on [`Json::get`]). Arrays and objects nest at most 64
//! deep, so a hostile line cannot overflow the stack.

/// Escapes `s` for placement inside a JSON string literal (without the
/// surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// [`escape`]d and quoted: the complete JSON string literal for `s`.
#[must_use]
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Deepest array/object nesting [`Json::parse`] accepts. Wire envelopes
/// nest one level; each level costs a few stack frames of recursion.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers are `f64` (exact for the integer range
/// the wire envelopes use, |n| ≤ 2⁵³); object members keep document
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed,
    /// trailing content not).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset and what went wrong,
    /// including arrays and objects nested more than 64 deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object (first match; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer (rejects fractions,
    /// negatives and anything above 2⁵³, where `f64` stops being exact).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        let max_exact = 9_007_199_254_740_992.0; // 2^53
        if n.fract() == 0.0 && (0.0..=max_exact).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Recursive-descent state over the raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte 0x{b:02x} at byte {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
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
                None => return Err("unterminated string".to_string()),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("bad low surrogate at byte {}", self.pos));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary of
                    // the input &str.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(run.expect("input was a &str"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape '{hex}'"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{7}f — ünïcode 🦀";
        let parsed = Json::parse(&quote(nasty)).unwrap();
        assert_eq!(parsed.as_str(), Some(nasty));
        // Megabytes parse in one pass: each plain run is copied once
        // (re-validating the rest of the input per character was
        // quadratic in the length).
        let long = nasty.repeat(100_000);
        assert_eq!(Json::parse(&quote(&long)).unwrap().as_str(), Some(&*long));
    }

    #[test]
    fn parses_the_service_envelope_shape() {
        let line = r#"{"v": 1, "id": 42, "op": "submit", "spec": "scheme = mint\nworkload = mcf"}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(
            v.get("spec").and_then(Json::as_str),
            Some("scheme = mint\nworkload = mcf")
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_values_and_numbers() {
        let v = Json::parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": true, "d": null}}"#).unwrap();
        let Some(Json::Arr(items)) = v.get("a") else {
            panic!("a is an array");
        };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert_eq!(items[1].as_u64(), None, "fractions are not u64s");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone surrogate");
    }

    #[test]
    fn nesting_is_bounded() {
        let nest =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        assert!(Json::parse(&nest("[", "]", 100_000)).is_err());
        assert!(Json::parse(&nest("{\"a\":", "}", 100_000)).is_err());
        assert!(
            Json::parse(&"[{\"a\":".repeat(50_000)).is_err(),
            "mixed and unclosed"
        );
    }

    #[test]
    fn malformed_documents_are_described() {
        for (doc, needle) in [
            ("{\"a\": 1,}", "expected"),
            ("[1 2]", "expected"),
            ("{\"a\" 1}", "expected"),
            ("\"unterminated", "unterminated"),
            ("nul", "null"),
            ("1.2.3", "bad number"),
            ("{} trailing", "trailing"),
            ("", "end of input"),
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }
}
