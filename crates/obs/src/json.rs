//! A minimal JSON reader (and escape helper) for the observability
//! surface — `mcttop` parses `/stats` and `/slow` bodies with it, and
//! the integration tests use it to assert the server's JSON output is
//! well-formed. In-tree by the repo's zero-dependency rule; it parses
//! the full JSON grammar but keeps numbers as `f64` and objects as
//! ordered pairs, which is all our payloads need.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`; our payloads stay well inside the
    /// 2^53 integer-exact range).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as key/value pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let b = text.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(JsonError::at("trailing garbage", i));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements (`None` for other variants).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number (`None` for other variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64 (rounded toward zero; `None` for negatives
    /// and non-numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub what: &'static str,
    /// Byte offset of the failure.
    pub at: usize,
}

impl JsonError {
    fn at(what: &'static str, at: usize) -> JsonError {
        JsonError { what, at }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Append `s` JSON-escaped (with surrounding quotes) onto `out` — the
/// write-side twin of the parser, shared by every JSON writer: the
/// metrics snapshot, the `/query` rows, the request log and the
/// `/slow` / `/stats` renderers.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, lit: &'static str, what: &'static str) -> Result<(), JsonError> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(what, *i))
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut pairs = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                expect(b, i, ":", "expected ':' after object key")?;
                let value = parse_value(b, i)?;
                pairs.push((key, value));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError::at("expected ',' or '}' in object", *i)),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at("expected ',' or ']' in array", *i)),
                }
            }
        }
        Some(b'"') => parse_string(b, i).map(Json::Str),
        Some(b't') => expect(b, i, "true", "expected 'true'").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, i, "false", "expected 'false'").map(|()| Json::Bool(false)),
        Some(b'n') => expect(b, i, "null", "expected 'null'").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'+' | b'-' | b'.' | b'e' | b'E'))
            {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or(JsonError::at("malformed number", start))
        }
        _ => Err(JsonError::at("expected a JSON value", *i)),
    }
}

/// The four hex digits of a `\u` escape starting at `at`, if intact.
fn parse_hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, JsonError> {
    if b.get(*i) != Some(&b'"') {
        return Err(JsonError::at("expected a string", *i));
    }
    *i += 1;
    let mut out = String::new();
    let mut run = *i; // start of the current unescaped byte run
    loop {
        match b.get(*i) {
            None => return Err(JsonError::at("unterminated string", *i)),
            Some(b'"') => {
                out.push_str(
                    std::str::from_utf8(&b[run..*i])
                        .map_err(|_| JsonError::at("invalid UTF-8 in string", run))?,
                );
                *i += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(
                    std::str::from_utf8(&b[run..*i])
                        .map_err(|_| JsonError::at("invalid UTF-8 in string", run))?,
                );
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = parse_hex4(b, *i + 1)
                            .ok_or(JsonError::at("malformed \\u escape", *i))?;
                        *i += 4;
                        if (0xD800..=0xDBFF).contains(&hex) {
                            // High surrogate: joins a following
                            // `\uDCxx` low surrogate into one astral
                            // code point; a lone high surrogate maps
                            // to the replacement character.
                            let low = (b.get(*i + 1) == Some(&b'\\')
                                && b.get(*i + 2) == Some(&b'u'))
                            .then(|| parse_hex4(b, *i + 3))
                            .flatten()
                            .filter(|lo| (0xDC00..=0xDFFF).contains(lo));
                            match low {
                                Some(lo) => {
                                    let cp =
                                        0x10000 + ((hex - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(cp).expect("surrogate pair in range"),
                                    );
                                    *i += 6;
                                }
                                None => out.push('\u{fffd}'),
                            }
                        } else {
                            // A lone low surrogate also maps to the
                            // replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err(JsonError::at("unknown escape", *i)),
                }
                *i += 1;
                run = *i;
            }
            Some(_) => *i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v = Json::parse(
            r#"{"a": 1.5, "b": [true, false, null], "s": "x\ny", "neg": -3, "e": 1e3}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(1000.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr, &[Json::Bool(true), Json::Bool(false), Json::Null]);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_objects_and_empty_containers() {
        let v = Json::parse(r#"{"outer": {"inner": []}, "empty": {}}"#).unwrap();
        assert_eq!(
            v.get("outer").unwrap().get("inner").unwrap().as_array(),
            Some(&[][..])
        );
        assert_eq!(v.get("empty"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "nul",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#""tab\there \"quote\" back\\slash A""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there \"quote\" back\\slash A"));
    }

    #[test]
    fn escape_into_round_trips_through_the_parser() {
        for s in ["plain", "with \"quotes\"", "line\nbreak\ttab", "uni ☃", "\u{0001}ctl"] {
            let mut out = String::new();
            escape_into(&mut out, s);
            assert_eq!(Json::parse(&out).unwrap().as_str(), Some(s), "{out}");
        }
    }

    #[test]
    fn surrogate_pairs_reassemble_into_astral_code_points() {
        // U+1D11E MUSICAL SYMBOL G CLEF.
        assert_eq!(
            Json::parse(r#""\uD834\uDD1E""#).unwrap().as_str(),
            Some("\u{1D11E}")
        );
        // U+10FFFF, the last code point.
        assert_eq!(
            Json::parse(r#""\uDBFF\uDFFF""#).unwrap().as_str(),
            Some("\u{10FFFF}")
        );
        // Embedded in surrounding text, twice in a row.
        assert_eq!(
            Json::parse(r#""a\uD83D\uDE00b\uD83D\uDE01c""#).unwrap().as_str(),
            Some("a\u{1F600}b\u{1F601}c")
        );
        // Mixed-case hex digits.
        assert_eq!(
            Json::parse(r#""\ud834\uDd1e""#).unwrap().as_str(),
            Some("\u{1D11E}")
        );
    }

    #[test]
    fn lone_surrogates_map_to_the_replacement_character() {
        // Lone high surrogate (end of string).
        assert_eq!(
            Json::parse(r#""\uD834""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        // Lone low surrogate.
        assert_eq!(
            Json::parse(r#""x\uDD1Ey""#).unwrap().as_str(),
            Some("x\u{fffd}y")
        );
        // High surrogate followed by a non-surrogate escape: both
        // survive, the stranded high as U+FFFD.
        assert_eq!(
            Json::parse(r#""\uD834A""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
        // High surrogate followed by plain text.
        assert_eq!(
            Json::parse(r#""\uD834zz""#).unwrap().as_str(),
            Some("\u{fffd}zz")
        );
        // High surrogate followed by a valid pair: the stranded one
        // is replaced, the pair still reassembles.
        assert_eq!(
            Json::parse(r#""\uD834\uD834\uDD1E""#).unwrap().as_str(),
            Some("\u{fffd}\u{1D11E}")
        );
    }

    #[test]
    fn astral_characters_round_trip_through_escape_and_parse() {
        for s in ["\u{1D11E}", "emoji \u{1F600}\u{1F601}", "mix ☃ \u{10FFFF} end"] {
            let mut out = String::new();
            escape_into(&mut out, s);
            assert_eq!(Json::parse(&out).unwrap().as_str(), Some(s), "{out}");
        }
    }

    #[test]
    fn u64_accessor_rejects_negatives() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
    }
}
