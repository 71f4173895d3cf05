//! A minimal, panic-free JSON layer for the trace codec.
//!
//! The build environment cannot fetch `serde_json`, and the codec's wire
//! format is small and stable, so the workspace carries its own JSON
//! implementation. It is deliberately defensive: the parser returns
//! `Err` on any malformed input (including a recursion-depth cap so
//! adversarial nesting cannot overflow the stack), which is exactly what
//! the lossy trace reader needs to resync after corrupted lines.
//!
//! The parser is also **allocation-lean**: [`Value`] borrows from the
//! input line. Strings without escape sequences — every key and almost
//! every value the codec ever writes — are returned as
//! [`Cow::Borrowed`] slices of the input, so parsing a record line
//! allocates only the two `Vec`s of the object tree, not one `String`
//! per field. Only strings that actually contain `\` escapes are
//! unescaped into owned buffers.
//!
//! The `Value` tree is no longer the trace decode hot path: record lines
//! in the writer's own spelling are read by the schema-directed scanner
//! (`scan::scan_view`, see [`crate::codec`]) without building a tree.
//! This parser still decides everything the scanner declines — lines with
//! escapes, foreign spellings, and every corrupt line, so it alone defines
//! what is bad JSON — and it reads the trace header, checkpoints, run
//! manifests, bench result files and every NDJSON artifact the tools
//! validate.

use http_model::Url;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// Maximum nesting depth the parser accepts. Trace records nest three
/// levels deep; anything deeper than this is garbage or an attack.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value, borrowing from the input where possible.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// A number with fraction or exponent.
    Float(f64),
    /// A string; borrowed from the input unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object; insertion-ordered, duplicate keys keep the last value.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .rev()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Numeric value as `f64` (accepts both `Int` and `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer value as `u64`; floats are rejected like serde does.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value under `key`, decoded as `T`. A missing key or a value that
    /// does not fit `T` is an error that says where: `a.b[3][1]: expected u64`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, DecodeError> {
        self.field_with(key, T::from_json)
    }

    /// Like [`Value::field`], but an absent key reads as `None`, as `null` does.
    pub(crate) fn opt_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, DecodeError> {
        let present = self.get(key).map(Option::<T>::from_json);
        present.map_or(Ok(None), |r| r.map_err(|e| e.at_key(key)))
    }

    /// [`Value::field`] for a value `decode` knows how to read (a nested
    /// object, or a type that needs context [`FromJson`] cannot carry).
    pub fn field_with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Value<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let v = self
            .get(key)
            .ok_or_else(|| DecodeError::new("missing field").at_key(key))?;
        decode(v).map_err(|e| e.at_key(key))
    }

    /// Every item of an array through `decode`; a failure names its index.
    pub fn each<T>(
        &self,
        mut decode: impl FnMut(&Value<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let Value::Array(items) = self else {
            return Err(DecodeError::new("expected array"));
        };
        let item = |(i, v)| decode(v).map_err(|e: DecodeError| e.at_index(i));
        items.iter().enumerate().map(item).collect()
    }
}

/// Why a parsed value did not decode, and where. The path is assembled
/// outward, one segment per level, as the error returns through
/// [`Value::field`], [`Value::each`] and the tuple decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    path: String,
    what: String,
}

impl DecodeError {
    /// A failure at the current value (`expected u64`, `missing field`).
    pub fn new(what: impl Into<String>) -> DecodeError {
        DecodeError {
            path: String::new(),
            what: what.into(),
        }
    }

    /// The failing value sits under `key` of the enclosing object.
    pub fn at_key(mut self, key: &str) -> DecodeError {
        let dot = !self.path.is_empty() && !self.path.starts_with('[');
        self.path.insert_str(0, if dot { "." } else { "" });
        self.path.insert_str(0, key);
        self
    }

    /// The failing value is item `index` of the enclosing array.
    pub fn at_index(self, index: usize) -> DecodeError {
        self.at_key(&format!("[{index}]"))
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sep = if self.path.is_empty() { "" } else { ": " };
        write!(f, "{}{sep}{}", self.path, self.what)
    }
}

/// A type that reads itself out of a parsed [`Value`], refusing anything that
/// does not fit: integers go through `try_from` on the parser's `i128`, so an
/// out-of-range number is an error, never a narrowed one.
pub trait FromJson: Sized {
    /// Decode `v`, or say what was expected in its place.
    fn from_json(v: &Value<'_>) -> Result<Self, DecodeError>;
}

fn expected<T>(got: Option<T>, what: &str) -> Result<T, DecodeError> {
    got.ok_or_else(|| DecodeError::new(format!("expected {what}")))
}

macro_rules! int_from_json {
    ($($t:ident)*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value<'_>) -> Result<$t, DecodeError> {
                let int = match v {
                    Value::Int(i) => $t::try_from(*i).ok(),
                    _ => None,
                };
                expected(int, stringify!($t))
            }
        }
    )*};
}
int_from_json!(u8 u16 u32 u64 usize i32 i64);

impl FromJson for f64 {
    fn from_json(v: &Value<'_>) -> Result<f64, DecodeError> {
        expected(v.as_f64(), "number")
    }
}

impl FromJson for bool {
    fn from_json(v: &Value<'_>) -> Result<bool, DecodeError> {
        let b = match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        };
        expected(b, "bool")
    }
}

/// The one place the generic trace decode copies a string out of the borrowed
/// parse tree: the parser does not allocate for escape-free strings, so a
/// kept string field costs exactly one allocation.
impl FromJson for String {
    fn from_json(v: &Value<'_>) -> Result<String, DecodeError> {
        expected(v.as_str(), "string").map(str::to_string)
    }
}

impl FromJson for Arc<str> {
    fn from_json(v: &Value<'_>) -> Result<Arc<str>, DecodeError> {
        expected(v.as_str(), "string").map(Arc::from)
    }
}

impl FromJson for Url {
    fn from_json(v: &Value<'_>) -> Result<Url, DecodeError> {
        Url::parse(expected(v.as_str(), "url")?)
            .map_err(|e| DecodeError::new(format!("bad url: {e}")))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value<'_>) -> Result<Option<T>, DecodeError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value<'_>) -> Result<Vec<T>, DecodeError> {
        v.each(T::from_json)
    }
}

/// Fixed-arity arrays: `[key, count, error]`, `[index, count]`, … decode as
/// tuples; any other length is refused.
macro_rules! tuple_from_json {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Value<'_>) -> Result<Self, DecodeError> {
                match v {
                    Value::Array(a) if a.len() == $n => Ok((
                        $($t::from_json(&a[$i]).map_err(|e| e.at_index($i))?,)+
                    )),
                    _ => Err(DecodeError::new(concat!("expected array of ", $n))),
                }
            }
        }
    };
}
tuple_from_json!(2: A 0, B 1);
tuple_from_json!(3: A 0, B 1, C 2);
tuple_from_json!(4: A 0, B 1, C 2, D 3);
tuple_from_json!(5: A 0, B 1, C 2, D 3, E 4);
tuple_from_json!(6: A 0, B 1, C 2, D 3, E 4, F 5);
tuple_from_json!(8: A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);

/// Parse one complete JSON value; trailing non-whitespace is an error.
/// The returned [`Value`] borrows from `input`.
pub fn parse(input: &str) -> Result<Value<'_>, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value<'a>, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &[u8], v: Value<'a>) -> Result<Value<'a>, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value<'a>, String> {
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
            let val = self.value(depth + 1)?;
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

    fn array(&mut self, depth: u32) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    /// Parse a string literal. Fast path: scan to the closing quote; if no
    /// escape and no raw control byte was seen, borrow the input slice
    /// directly (the input is `&str`, so any byte-aligned slice between
    /// ASCII quotes is valid UTF-8). Slow path: unescape into an owned
    /// buffer, starting from whatever clean prefix the scan covered.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let s = &self.input[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#x} in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
        // Escape found at self.pos: keep the clean prefix, unescape the rest.
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.input[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a low surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".to_string());
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| "invalid surrogate pair".to_string())?
                                } else {
                                    return Err("unpaired surrogate".to_string());
                                }
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str, so the
                    // bytes are valid UTF-8 by construction.
                    let rest = &self.input[self.pos..];
                    let c = rest.chars().next().ok_or_else(|| "eof".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).ok_or("overflow")?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        let mut saw_digit = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_digit {
            return Err(format!("bad number at byte {start}"));
        }
        // The grammar above is permissive (e.g. `1.2.3` scans); the parse
        // below is the actual validity check.
        let text = &self.input[start..self.pos];
        if is_float {
            let f: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
            if !f.is_finite() {
                return Err(format!("non-finite number {text:?}"));
            }
            Ok(Value::Float(f))
        } else {
            match text.parse::<i128>() {
                Ok(i) => Ok(Value::Int(i)),
                Err(_) => {
                    let f: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
                    if !f.is_finite() {
                        return Err(format!("non-finite number {text:?}"));
                    }
                    Ok(Value::Float(f))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append a JSON string literal (with escaping) to `out`: the workspace's
/// one escaper, [`obs::write_json_str`], under the name this crate's
/// writers have always called.
pub fn write_str(out: &mut String, s: &str) {
    obs::write_json_str(out, s);
}

/// Append `n` in decimal: what `write!(out, "{n}")` appends, without the
/// formatter (the per-entry integers of a checkpoint line are written
/// millions of times a run).
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append a JSON number for `f`; non-finite values become `null`, matching
/// serde_json's behavior.
pub(crate) fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's shortest-roundtrip Debug formatting is valid JSON for finite
    // values and always keeps a fractional part (e.g. `60.0`).
    let _ = write!(out, "{f:?}");
}

/// Append `items` separated by commas, each written by `write_item`.
pub fn write_seq<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
}

/// Append an optional JSON string (None → `null`).
pub fn write_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => write_str(out, s),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        match v.get("a").unwrap() {
            Value::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "tru",
            "01x",
            "-",
            "{\"a\":1}trailing",
            "nan",
            "1e999",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"trailing escape\\",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting_without_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escape_free_strings_borrow_from_input() {
        let input = r#"{"host":"ads.example","uri":"/x?q=1"}"#;
        let v = parse(input).unwrap();
        match v.get("host") {
            Some(Value::Str(Cow::Borrowed(s))) => assert_eq!(*s, "ads.example"),
            other => panic!("expected borrowed string, got {other:?}"),
        }
        // Keys borrow too.
        match &v {
            Value::Object(fields) => {
                assert!(matches!(fields[0].0, Cow::Borrowed("host")));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_are_owned_and_correct() {
        let v = parse(r#""pre\"fix\n🦀 suffix""#).unwrap();
        match v {
            Value::Str(Cow::Owned(s)) => assert_eq!(s, "pre\"fix\n🦀 suffix"),
            other => panic!("expected owned string, got {other:?}"),
        }
        // Non-ASCII without escapes still borrows.
        assert!(matches!(
            parse("\"héllo 🦀\"").unwrap(),
            Value::Str(Cow::Borrowed("héllo 🦀"))
        ));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83e\\udd80\"").unwrap(),
            Value::Str("🦀".into())
        );
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
    }

    fn decode<T: FromJson>(text: &str) -> Result<T, String> {
        T::from_json(&parse(text).unwrap()).map_err(|e| e.to_string())
    }

    /// Every integer type accepts exactly its own range: MIN and MAX decode
    /// to themselves, one past either end is refused — not wrapped, not
    /// saturated — and so is a float or a string holding the same digits.
    #[test]
    fn integers_decode_checked_at_both_ends() {
        macro_rules! ends {
            ($($t:ident)*) => {$(
                let (min, max) = ($t::MIN as i128, $t::MAX as i128);
                assert_eq!(decode::<$t>(&min.to_string()), Ok($t::MIN));
                assert_eq!(decode::<$t>(&max.to_string()), Ok($t::MAX));
                let refused = Err(concat!("expected ", stringify!($t)).to_string());
                assert_eq!(decode::<$t>(&(min - 1).to_string()), refused);
                assert_eq!(decode::<$t>(&(max + 1).to_string()), refused);
                assert_eq!(decode::<$t>("1.0"), refused);
                assert_eq!(decode::<$t>("\"1\""), refused);
            )*};
        }
        ends!(u8 u16 u32 u64 usize i32 i64);
    }

    #[test]
    fn scalars_options_and_sequences_decode() {
        assert_eq!(decode::<f64>("3"), Ok(3.0));
        assert_eq!(decode::<f64>("null"), Err("expected number".into()));
        assert_eq!(decode::<bool>("true"), Ok(true));
        assert_eq!(decode::<bool>("\"yes\""), Err("expected bool".into()));
        assert_eq!(decode::<String>("\"a\\nb\""), Ok("a\nb".to_string()));
        assert_eq!(decode::<Arc<str>>("\"x\"").as_deref(), Ok("x"));
        assert_eq!(decode::<Option<u8>>("null"), Ok(None));
        assert_eq!(decode::<Option<u8>>("7"), Ok(Some(7)));
        assert_eq!(decode::<Vec<u8>>("[1,2,3]"), Ok(vec![1, 2, 3]));
        assert_eq!(decode::<Vec<u8>>("[1,256]"), Err("[1]: expected u8".into()));
        assert_eq!(decode::<Vec<u8>>("{}"), Err("expected array".into()));
        let url = decode::<Url>("\"http://a.example/x?q=1\"").unwrap();
        assert_eq!(url.host(), "a.example");
        assert!(decode::<Url>("\"\"").unwrap_err().starts_with("bad url"));
        assert_eq!(decode::<Url>("1"), Err("expected url".into()));
    }

    #[test]
    fn tuples_decode_by_exact_arity() {
        assert_eq!(
            decode::<(String, u64, u64)>("[\"k\",3,0]"),
            Ok(("k".to_string(), 3, 0))
        );
        assert_eq!(
            decode::<(u8, u32, u32, i64)>("[2,1,0,-4]"),
            Ok((2, 1, 0, -4))
        );
        for wrong in ["[1,2]", "[1,2,3,4]", "[]", "7", "{}"] {
            assert_eq!(
                decode::<(u8, u8, u8)>(wrong),
                Err("expected array of 3".into()),
                "{wrong}"
            );
        }
        assert_eq!(
            decode::<(u8, Option<u8>)>("[1,-1]"),
            Err("[1]: expected u8".into())
        );
        assert_eq!(
            decode::<(u8, u8, u8, u8, u8, u8)>("[1,2,3,4,5,6]"),
            Ok((1, 2, 3, 4, 5, 6))
        );
    }

    #[test]
    fn field_errors_render_their_path() {
        let v = parse(r#"{"population":{"tallies":[[1,2],[2,3],[3,4],[4,-5]]}}"#).unwrap();
        let tallies = |p: &Value<'_>| p.field::<Vec<(u32, u64)>>("tallies");
        assert_eq!(
            v.field_with("population", tallies).unwrap_err().to_string(),
            "population.tallies[3][1]: expected u64"
        );
        // Three levels down, past an index, into an object again.
        let v = parse(r#"{"windows":{"windows":[{"index":0},{"index":"x"}]}}"#).unwrap();
        let windows =
            |w: &Value<'_>| w.field_with("windows", |a| a.each(|w| w.field::<i64>("index")));
        assert_eq!(
            v.field_with("windows", windows).unwrap_err().to_string(),
            "windows.windows[1].index: expected i64"
        );
        assert_eq!(
            v.field::<u8>("absent").unwrap_err().to_string(),
            "absent: missing field"
        );
        assert_eq!(
            parse("7")
                .unwrap()
                .field::<u8>("k")
                .unwrap_err()
                .to_string(),
            "k: missing field"
        );
        assert_eq!(v.opt_field::<u8>("absent"), Ok(None));
        assert_eq!(
            parse(r#"{"k":null}"#).unwrap().opt_field::<u8>("k"),
            Ok(None)
        );
        assert_eq!(
            parse(r#"{"k":9}"#).unwrap().opt_field::<u8>("k"),
            Ok(Some(9))
        );
        assert_eq!(
            parse(r#"{"k":"9"}"#)
                .unwrap()
                .opt_field::<u8>("k")
                .unwrap_err()
                .to_string(),
            "k: expected u8"
        );
    }

    #[test]
    fn write_seq_separates_with_commas() {
        let mut s = String::new();
        write_seq(&mut s, [1, 2, 3], |out, n| {
            let _ = write!(out, "{n}");
        });
        write_seq(&mut s, std::iter::empty::<u8>(), |out, _| out.push('x'));
        assert_eq!(s, "1,2,3");
    }

    /// `write_u64` appends exactly what the formatter does, at every digit
    /// count boundary and over the whole range.
    #[test]
    fn write_u64_matches_the_formatter() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random = std::iter::repeat_with(|| {
            // SplitMix64, shifted so every digit count from 1 to 20 turns up.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 27)) >> (state % 64)
        });
        let powers = (0..20).map(|p| 10u64.pow(p));
        let edges = powers.flat_map(|p| [p - 1, p, p + 1]);
        for n in edges
            .chain([u64::MAX - 1, u64::MAX])
            .chain(random.take(4096))
        {
            let mut out = "x".to_string();
            write_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn writer_escapes() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\u0001""#);
        let mut f = String::new();
        write_f64(&mut f, 60.0);
        assert_eq!(f, "60.0");
        let mut n = String::new();
        write_f64(&mut n, f64::NAN);
        assert_eq!(n, "null");
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut s = String::new();
        write_str(&mut s, "héllo 🦀 \t end");
        assert_eq!(parse(&s).unwrap(), Value::Str("héllo 🦀 \t end".into()));
    }

    /// The borrowed fast path and the writer must agree on exactly which
    /// strings need escaping: any string the writer emits without a `\`
    /// must come back borrowed; any escaped one must round-trip owned.
    #[test]
    fn fast_path_matches_writer_escape_set() {
        let cases = [
            "plain",
            "with space",
            "slash/ok",
            "q=1&r=2",
            "héllo",
            "🦀",
            "quote\"inside",
            "back\\slash",
            "new\nline",
            "tab\there",
            "\u{8}",
        ];
        for original in cases {
            let mut line = String::new();
            write_str(&mut line, original);
            let parsed = parse(&line).unwrap();
            assert_eq!(parsed.as_str(), Some(original), "roundtrip {original:?}");
            let writer_escaped = line[1..line.len() - 1].contains('\\');
            match parsed {
                Value::Str(Cow::Borrowed(_)) => {
                    assert!(!writer_escaped, "{original:?} should have been owned")
                }
                Value::Str(Cow::Owned(_)) => {
                    assert!(writer_escaped, "{original:?} should have borrowed")
                }
                other => panic!("expected string, got {other:?}"),
            }
        }
    }
}
