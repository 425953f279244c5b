//! A minimal, dependency-free JSON codec for the serving layer.
//!
//! The workspace is std-only by charter, so the daemon carries its own
//! (small, strict) JSON implementation instead of pulling in `serde`.
//! Two properties matter for the serving contract and are guaranteed
//! here:
//!
//! * **Integers round-trip exactly.** [`Json::Int`] keeps `i64` values
//!   out of the `f64` lane, so version stamps, node ids and seeds do
//!   not get mangled past 2^53. (Seeds ≥ 2^63 are not representable in
//!   JSON numbers; the endpoints document that limit.)
//! * **Floats round-trip bit-exactly.** Serialization uses Rust's
//!   shortest-round-trip `Display` for `f64`, and the responders
//!   additionally expose raw bit patterns (`z_bits`) as hex strings so
//!   clients can compare results for bit-identity without trusting any
//!   decimal formatting at all.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match wins), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` (integers only — floats don't coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's f64 Display and LowerExp are both
                    // shortest-round-trip: the printed decimal parses
                    // back to the same bits. Display never uses an
                    // exponent, so outside the window where positional
                    // notation is readable (ECMAScript's: 1e-6 ≤ |x| <
                    // 1e21) a p-value of 1e-200 would be 200 digits
                    // long — switch to exponent notation there.
                    let start = out.len();
                    let magnitude = x.abs();
                    if *x == 0.0 || (1e-6..1e21).contains(&magnitude) {
                        let _ = write!(out, "{x}");
                    } else {
                        let _ = write!(out, "{x:e}");
                    }
                    if !out[start..].contains(['.', 'e']) {
                        // Whole-valued floats print as "2" — keep them
                        // in the float lane across a round trip.
                        out.push_str(".0");
                    }
                } else {
                    // NaN/±inf are not JSON; clients get null.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

/// Convenience: build an object from `(key, value)` pairs.
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON syntax error with a byte offset, surfaced to clients in 400
/// responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap — malicious bodies cannot blow the parse stack.
const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::at(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(&c) => Err(JsonError::at(
            *pos,
            format!("unexpected character {:?}", c as char),
        )),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected `{literal}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "non-UTF-8 number"))?;
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::at(start, format!("bad number `{text}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are rejected rather than
                        // recombined; the endpoints never emit them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError::at(*pos, "invalid \\u code point"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(JsonError::at(*pos, "control character in string"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "non-UTF-8 string"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::at(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::at(*pos, "expected `:`"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(JsonError::at(*pos, "expected `,` or `}`")),
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":null,"d":true},"e":"x\ny"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Json::Int(1));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1], Json::Num(2.5));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
        let reparsed = Json::parse(&v.encode()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn integers_survive_past_f64_precision() {
        let big = (1i64 << 60) + 1;
        let doc = format!("{{\"v\":{big}}}");
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("v").unwrap().as_i64(), Some(big));
        assert_eq!(v.encode(), doc);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.0, 0.0] {
            let encoded = Json::Num(x).encode();
            match Json::parse(&encoded).unwrap() {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{encoded}"),
                Json::Int(i) => assert_eq!(x, i as f64, "{encoded}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn whole_valued_floats_stay_floats() {
        assert_eq!(Json::Num(2.0).encode(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
    }

    #[test]
    fn extreme_magnitudes_use_exponent_notation_and_round_trip() {
        // Outside 1e-6 ≤ |x| < 1e21 the encoding is exponent notation,
        // short, and parses back to the same bits in the float lane.
        for (x, text) in [
            (1e-200, "1e-200"),
            (-1e-200, "-1e-200"),
            (1e300, "1e300"),
            (1e21, "1e21"),
            (9.99e-7, "9.99e-7"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (f64::MAX, "1.7976931348623157e308"),
            (5e-324, "5e-324"),
        ] {
            let encoded = Json::Num(x).encode();
            assert_eq!(encoded, text);
            assert_eq!(Json::parse(&encoded).unwrap(), Json::Num(x), "{encoded}");
            match Json::parse(&encoded).unwrap() {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{encoded}"),
                other => panic!("{encoded} left the float lane: {other:?}"),
            }
        }
        // Inside the window nothing changes, whole values keep `.0`.
        for (x, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (0.000001, "0.000001"),
            (123456789.0, "123456789.0"),
            (1e20, "100000000000000000000.0"),
            (-2.5, "-2.5"),
        ] {
            let encoded = Json::Num(x).encode();
            assert_eq!(encoded, text);
            match Json::parse(&encoded).unwrap() {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{encoded}"),
                other => panic!("{encoded} left the float lane: {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "+5",
            "\u{0}",
        ] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn escapes_strings_on_output() {
        let v = Json::Str("a\"b\\c\nd\u{0001}".into());
        let enc = v.encode();
        assert_eq!(enc, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&enc).unwrap(), v);
    }
}
