//! A minimal hand-rolled JSON value, writer, and parser.
//!
//! The build environment is offline, so the harness cannot pull `serde`;
//! the cache entries and journal events it needs are small, flat-ish
//! documents for which this implementation suffices. Numbers are kept in
//! two flavours — [`Json::U64`] for counters (lossless beyond 2^53, which
//! `f64` could not represent) and [`Json::F64`] for the rest.
//!
//! The writer appends to one caller-owned buffer, or to any [`Sink`] (the
//! result cache hashes an entry's bytes as they are written): a run of
//! bytes that needs no escape goes in with one `push_str`, and a counter is
//! written without the `fmt` machinery. [`Object`] writes an object field
//! by field, so a record never builds a [`Json`] tree to be written.
//!
//! The parser takes exactly RFC 8259's grammar (no leading zero, no `1.`,
//! no raw control character in a string), refuses nesting deeper than
//! [`MAX_DEPTH`], and copies each string one run at a time. [`Fields`]
//! reads an object's pairs in the order the writer put them.

use std::fmt;

/// The deepest nesting [`parse`] accepts. The documents this workspace
/// writes nest at most 3 deep; the limit keeps a `[[[[…` body from
/// overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, `e`, or leading `-`) that
    /// fits in 64 bits.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (its first pair with that key); `None`
    /// for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Json::as_u64`].
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Appends the value's JSON text to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => write_u64(out, *v),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let mut obj = Object::new(out);
                for (k, v) in pairs {
                    v.write_to(obj.key(k));
                }
                obj.end();
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.write_to(&mut text);
        f.write_str(&text)
    }
}

/// Where the writer's text goes: a `String`, or a consumer such as a hash
/// that never holds the text.
pub trait Sink {
    /// Appends `s`.
    fn put(&mut self, s: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// Writes `v` in decimal.
pub fn write_u64<S: Sink + ?Sized>(out: &mut S, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Ok(text) = std::str::from_utf8(&digits[at..]) {
        out.put(text); // always: the slice holds ASCII digits only
    }
}

/// Writes `v` in Rust's shortest round-trip rendering (`1` for 1.0), or
/// `null` when it is not finite: JSON has no Inf/NaN literals.
pub fn write_f64<S: Sink + ?Sized>(out: &mut S, v: f64) {
    if v.is_finite() {
        out.put(&v.to_string());
    } else {
        out.put("null");
    }
}

/// Writes `s` as a JSON string: `"`, `\` and the control characters are
/// escaped, and every run between them, non-ASCII text included, is copied
/// with one `put`.
pub fn write_str<S: Sink + ?Sized>(out: &mut S, s: &str) {
    out.put("\"");
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` is an ASCII byte, so both ends of the run are char boundaries.
        out.put(&s[run..i]);
        if escape.is_empty() {
            out.put(&format!("\\u{:04x}", b));
        } else {
            out.put(escape);
        }
        run = i + 1;
    }
    out.put(&s[run..]);
    out.put("\"");
}

/// One JSON object written field by field, in call order, into a [`Sink`]:
/// `{` on [`Object::new`], `}` on [`Object::end`].
pub struct Object<'a, S: Sink + ?Sized> {
    out: &'a mut S,
    empty: bool,
}

impl<'a, S: Sink + ?Sized> Object<'a, S> {
    /// Opens an object in `out`.
    pub fn new(out: &'a mut S) -> Self {
        out.put("{");
        Object { out, empty: true }
    }

    /// Writes `key` and its colon; the caller writes the value into the
    /// returned sink.
    pub fn key(&mut self, key: &str) -> &mut S {
        if !self.empty {
            self.out.put(",");
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.put(":");
        self.out
    }

    /// A counter field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        write_u64(self.key(key), v);
        self
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    /// A `null` field.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).put("null");
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.put("}");
    }
}

/// A cursor over one object's pairs, for a reader that looks up each key at
/// most once: a lookup first tries the pair after the last one it found,
/// and searches the whole object only when that pair has another key. Its
/// answer is always [`Json::get`]'s (the first pair with the key): every
/// pair before the cursor holds a key already looked up, so none of them
/// can hold the key being looked up now.
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
    next: usize,
}

impl<'a> Fields<'a> {
    /// A cursor at the first pair of `doc`; a non-object has no pairs.
    pub fn new(doc: &'a Json) -> Self {
        let pairs = match doc {
            Json::Obj(pairs) => pairs.as_slice(),
            _ => &[],
        };
        Fields { pairs, next: 0 }
    }

    /// The value of `key`, as [`Json::get`] finds it.
    pub fn get(&mut self, key: &str) -> Option<&'a Json> {
        match self.pairs.get(self.next) {
            Some((k, v)) if k == key => {
                self.next += 1;
                Some(v)
            }
            _ => self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        }
    }
}

/// A parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where parsing failed (at most its
    /// length: the end of the input for a truncated document).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text: input, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Consumes a run of ASCII digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One run up to the next quote, backslash or control byte. Each
            // of those is ASCII, so the run ends on a char boundary.
            let run = self.pos;
            let rest = &self.text.as_bytes()[run..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // `from_str_radix` alone would accept `+041`.
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(self.err("invalid \\u escape"));
                            }
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: a
    /// non-negative integer that fits is a [`Json::U64`], any other finite
    /// number a [`Json::F64`].
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in a number"));
            }
        } else if !self.digits() {
            return Err(self.err("expected a digit"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if !self.digits() {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let text = &self.text[start..self.pos];
        if integral && !negative {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        // An integer past `u64::MAX` is still a number: the writer renders
        // a large integral `F64` that way.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(JsonError { message: "number out of range".to_owned(), offset: start }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sms_sim::geom::check::{for_cases, Gen};

    /// The tree writer the codec had before [`Json::write_to`], kept
    /// verbatim as the byte-identity oracle: every writer must produce the
    /// bytes this one does.
    pub(crate) fn oracle(v: &Json) -> String {
        Old(v).to_string()
    }

    struct Old<'a>(&'a Json);

    impl fmt::Display for Old<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::U64(v) => write!(f, "{v}"),
                Json::F64(v) => {
                    if v.is_finite() {
                        write!(f, "{v}")
                    } else {
                        f.write_str("null") // JSON has no Inf/NaN literals
                    }
                }
                Json::Str(s) => old_escaped(f, s),
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", Old(item))?;
                    }
                    f.write_str("]")
                }
                Json::Obj(pairs) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        old_escaped(f, k)?;
                        write!(f, ":{}", Old(v))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    fn old_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

    /// A sink that keeps every `put` apart, so a test sees the writer's
    /// text through the generic path rather than `String`'s.
    #[derive(Default)]
    struct Pieces(Vec<String>);

    impl Sink for Pieces {
        fn put(&mut self, s: &str) {
            self.0.push(s.to_owned());
        }
    }

    /// `v` written through [`Object`] and the free writers into any sink:
    /// the path the counter records and the journal take.
    fn stream<S: Sink + ?Sized>(v: &Json, out: &mut S) {
        match v {
            Json::Null => out.put("null"),
            Json::Bool(b) => out.put(if *b { "true" } else { "false" }),
            Json::U64(v) => write_u64(out, *v),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.put("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.put(",");
                    }
                    stream(item, out);
                }
                out.put("]");
            }
            Json::Obj(pairs) => {
                let mut obj = Object::new(out);
                for (k, v) in pairs {
                    match v {
                        Json::Null => obj.null(k),
                        Json::U64(v) => obj.u64(k, *v),
                        Json::Str(s) => obj.str(k, s),
                        v => {
                            stream(v, obj.key(k));
                            &mut obj
                        }
                    };
                }
                obj.end();
            }
        }
    }

    /// Text drawn from every class the escaper tells apart: the five named
    /// escapes, the other control characters, DEL, `/`, ASCII, and one-
    /// to four-byte UTF-8.
    fn text(g: &mut Gen) -> String {
        const CLASSES: [&str; 9] = [
            "\"",
            "\\",
            "\n\r\t",
            "\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f}",
            "\u{7f}",
            "/",
            "aZ09 :,{}[]",
            "é\u{fffd}",
            "€😀𝄞",
        ];
        (0..g.size(0, 12))
            .map(|_| {
                let class: Vec<char> = CLASSES[g.int(0, CLASSES.len() - 1)].chars().collect();
                class[g.int(0, class.len() - 1)]
            })
            .collect()
    }

    fn value(g: &mut Gen, depth: usize) -> Json {
        let u64s = [0, 1, 9, 10, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1];
        let f64s = [
            0.0,
            -0.0,
            1.0,
            2.5,
            -150.0,
            0.1,
            1e-7,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match g.int(0, if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(g.chance(0.5)),
            2 if g.chance(0.5) => Json::U64(u64s[g.int(0, u64s.len() - 1)]),
            2 => Json::U64(g.rng.next_u64() >> g.int(0, 63)),
            3 if g.chance(0.5) => Json::F64(f64s[g.int(0, f64s.len() - 1)]),
            3 => Json::F64(f64::from_bits(g.rng.next_u64())),
            4 | 5 => Json::Str(text(g)),
            6 => Json::Arr(g.vec(0, 4, |g| value(g, depth - 1))),
            _ => Json::Obj(g.vec(0, 4, |g| (text(g), value(g, depth - 1)))),
        }
    }

    /// Generated values, escapes, non-ASCII text, `u64` 0 and `MAX`,
    /// finite and non-finite `f64` and nesting included, write the oracle's
    /// bytes through `write_to`, `Display` and the streamed record path.
    #[test]
    fn every_writer_matches_the_tree_writer() {
        for_cases(4_000, 39, |g| {
            let v = value(g, 4);
            let old = oracle(&v);
            let mut text = String::new();
            v.write_to(&mut text);
            assert_eq!(text, old, "write_to of {v:?}");
            assert_eq!(v.to_string(), old, "Display of {v:?}");
            let mut pieces = Pieces::default();
            stream(&v, &mut pieces);
            assert_eq!(pieces.0.concat(), old, "streamed {v:?}");
            text.clear();
            stream(&v, &mut text);
            assert_eq!(text, old, "streamed into a String: {v:?}");
        });
    }

    /// Equal as JSON values: a number is its value, so the `F64` 5.0 that
    /// the writer renders `5` equals the `U64` 5 it reads back as.
    fn same(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::U64(x), Json::U64(y)) => x == y,
            (Json::U64(_) | Json::F64(_), Json::U64(_) | Json::F64(_)) => a.as_f64() == b.as_f64(),
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.0 == b.0 && same(&a.1, &b.1))
            }
            _ => a == b,
        }
    }

    /// RFC 8259's grammar, written from the RFC and not from the parser.
    /// Nesting past [`MAX_DEPTH`] stops it at that bracket.
    struct Rfc<'a> {
        b: &'a [u8],
        i: usize,
    }

    /// Why [`Rfc`] refused: the offset of a bracket nesting past
    /// [`MAX_DEPTH`], or `None` for a text outside the grammar.
    type Refusal = Option<usize>;

    impl Rfc<'_> {
        fn at(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> bool {
            let hit = self.at() == Some(c);
            self.i += usize::from(hit);
            hit
        }
        fn ws(&mut self) {
            while matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn digits(&mut self) -> usize {
            let start = self.i;
            while matches!(self.at(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
            self.i - start
        }
        fn string(&mut self) -> Result<(), Refusal> {
            if !self.eat(b'"') {
                return Err(None);
            }
            loop {
                match self.at().ok_or(None)? {
                    b'"' => {
                        self.i += 1;
                        return Ok(());
                    }
                    0..=0x1f => return Err(None),
                    b'\\' => {
                        self.i += 1;
                        match self.at().ok_or(None)? {
                            b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.i += 1,
                            b'u' => {
                                let hex = self.b.get(self.i + 1..self.i + 5).ok_or(None)?;
                                if !hex.iter().all(u8::is_ascii_hexdigit) {
                                    return Err(None);
                                }
                                self.i += 5;
                            }
                            _ => return Err(None),
                        }
                    }
                    _ => self.i += 1,
                }
            }
        }
        fn value(&mut self, depth: usize) -> Result<(), Refusal> {
            self.ws();
            let (open, close) = match self.at().ok_or(None)? {
                b'{' => (b'{', b'}'),
                b'[' => (b'[', b']'),
                b'"' => return self.string(),
                b't' | b'f' | b'n' => {
                    let word = ["true", "false", "null"]
                        .into_iter()
                        .find(|w| self.b[self.i..].starts_with(w.as_bytes()));
                    self.i += word.ok_or(None)?.len();
                    return Ok(());
                }
                _ => {
                    self.eat(b'-');
                    if !self.eat(b'0') && self.digits() == 0 {
                        return Err(None);
                    }
                    if self.eat(b'.') && self.digits() == 0 {
                        return Err(None);
                    }
                    if self.eat(b'e') || self.eat(b'E') {
                        if !self.eat(b'+') {
                            self.eat(b'-');
                        }
                        if self.digits() == 0 {
                            return Err(None);
                        }
                    }
                    return Ok(());
                }
            };
            if depth == MAX_DEPTH {
                return Err(Some(self.i));
            }
            self.i += 1;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            loop {
                if open == b'{' {
                    self.ws();
                    self.string()?;
                    self.ws();
                    if !self.eat(b':') {
                        return Err(None);
                    }
                }
                self.value(depth + 1)?;
                self.ws();
                if self.eat(close) {
                    return Ok(());
                }
                if !self.eat(b',') {
                    return Err(None);
                }
            }
        }
    }

    fn rfc8259(text: &str) -> Result<(), Refusal> {
        let mut r = Rfc { b: text.as_bytes(), i: 0 };
        r.value(0)?;
        r.ws();
        if r.i == r.b.len() {
            Ok(())
        } else {
            Err(None)
        }
    }

    /// The documents the codec meets: the pinned cache entries and journal
    /// lines of `goldens.txt`, a sweep request, a probe answer and a
    /// sweep stream's lines as `serve_e2e` sends them.
    fn seeds() -> Vec<String> {
        // A row escapes `\` and `\r` only.
        let unescape = |row: &str| {
            let (mut out, mut chars) = (String::new(), row.chars());
            while let Some(c) = chars.next() {
                match c {
                    '\\' => out.push(if chars.next() == Some('r') { '\r' } else { '\\' }),
                    c => out.push(c),
                }
            }
            out
        };
        let table = include_str!("../../../goldens.txt");
        let mut seeds: Vec<String> = table
            .lines()
            .filter(|l| {
                l.starts_with("journal_schema.")
                    || l.starts_with("cache_robustness.") && l.contains(".entry ")
            })
            .filter_map(|l| l.split_once(' ').map(|(_, row)| unescape(row)))
            .collect();
        assert!(seeds.len() >= 14, "goldens.txt lost its entry and journal rows");
        let served = [
            r#"{"scenes":["WKND","SHIP"],"configs":["RB_8","RB_8+SH_8+SK+RA"],"render":"tiny"}"#,
            concat!(
                r#"{"key":"sms-sim salt=1|scene=WKND","scene":"WKND","config":"RB_8","#,
                r#""render":"tiny","stats":{"cycles":424242,"node_visits":7}}"#,
            ),
            concat!(
                r#"{"event":"job_queued","job":0,"scene":"WKND","config":"RB_8","#,
                r#""workload":"32x32x1","key":"sms-sim salt=1|scene=WKND"}"#,
            ),
            concat!(
                r#"{"event":"job_finished","job":0,"worker":null,"cache":"shared","#,
                r#""cycles":19029,"duration_us":0,"stats":{"cycles":19029,"#,
                r#""mem":{"l1_hits":2911}},"breakdown":null}"#,
            ),
            concat!(
                r#"{"event":"batch_end","jobs":1,"cache_hits":1,"cache_misses":0,"failed":0,"#,
                r#""duration_us":57,"sim_cycles":0,"runs_per_sec":17543.859649122805,"#,
                r#""sim_cycles_per_sec":0,"breakdown":null,"metrics":null,"builds":[]}"#,
            ),
        ];
        seeds.extend(served.map(str::to_owned));
        seeds
    }

    /// Numbers at the edges of the grammar and of the two number types.
    const NUMBERS: [&str; 16] = [
        "01",
        "-01",
        "1.",
        "1.e5",
        "-",
        "-.5",
        ".5",
        "1e",
        "1e+",
        "1E400",
        "-1e-400",
        "-0",
        "0.0e-0",
        "18446744073709551615",
        "18446744073709551616",
        "00",
    ];

    /// One seed, mutated one to three times: bit flips, a truncation, a
    /// splice from another seed, a duplicated key, a nesting bomb, a long
    /// digit run or an edge-case number.
    fn garbage(g: &mut Gen, seeds: &[String]) -> String {
        let seed = &seeds[g.int(0, seeds.len() - 1)];
        let mut bytes = seed.clone().into_bytes();
        if g.chance(0.2) {
            // A duplicated key, structurally: some pair of the top object
            // appears twice, anywhere in it.
            if let Ok(Json::Obj(mut pairs)) = parse(seed) {
                let pair = pairs[g.int(0, pairs.len() - 1)].clone();
                pairs.insert(g.int(0, pairs.len()), pair);
                bytes = oracle(&Json::Obj(pairs)).into_bytes();
            }
        }
        for _ in 0..g.int(1, 3) {
            let len = bytes.len();
            let at = g.int(0, len);
            match g.int(0, 5) {
                0 => {
                    for _ in 0..g.int(1, 3) {
                        if len > 0 {
                            bytes[g.int(0, len - 1)] ^= 1 << g.int(0, 7);
                        }
                    }
                }
                1 => bytes.truncate(at),
                2 => {
                    let other = seeds[g.int(0, seeds.len() - 1)].as_bytes();
                    let from = g.int(0, other.len());
                    let piece = &other[from..from + g.size(0, other.len() - from)];
                    let end = at + g.size(0, len - at);
                    bytes.splice(at..end, piece.iter().copied());
                }
                3 => {
                    let depth =
                        if g.chance(0.5) { g.int(MAX_DEPTH - 2, MAX_DEPTH + 2) } else { 20_000 };
                    let (open, close) = if g.chance(0.5) { ("[", "]") } else { ("{\"a\":", "}") };
                    let mut bomb = open.repeat(depth).into_bytes();
                    bomb.append(&mut bytes);
                    if g.chance(0.5) {
                        bomb.extend(close.repeat(depth).bytes());
                    }
                    bytes = bomb;
                }
                4 => {
                    let run: Vec<u8> =
                        (0..g.size(1, 400)).map(|_| b'0' + g.int(0, 9) as u8).collect();
                    bytes.splice(at..at, run);
                }
                _ => {
                    // Over the digits at `at`, if any.
                    let end = (at..len).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(len);
                    bytes.splice(at..end, NUMBERS[g.int(0, NUMBERS.len() - 1)].bytes());
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Generated garbage, seeded from the documents the codec meets: the
    /// parser never panics or aborts; it accepts a text only when RFC 8259
    /// does, and refuses a valid one only for nesting past [`MAX_DEPTH`]
    /// (at the bracket the grammar reached it) or a number no `f64`
    /// holds; every refusal's offset lies in the input; and every accepted
    /// value, written back, parses to the same value.
    #[test]
    fn garbage_is_refused_in_bounds_or_round_trips() {
        let seeds = seeds();
        for_cases(40_000, 39, |g| {
            let input = garbage(g, &seeds);
            let shown: String = input.chars().take(160).collect();
            match (parse(&input), rfc8259(&input)) {
                (Ok(v), Ok(())) => {
                    let mut text = String::new();
                    v.write_to(&mut text);
                    let back = parse(&text).unwrap_or_else(|e| panic!("{e} re-reading {text:?}"));
                    assert!(same(&v, &back), "{input:?} wrote {text:?}, read back {back:?}");
                }
                (Ok(_), Err(_)) => panic!("accepted what RFC 8259 refuses: {shown:?}"),
                (Err(e), verdict) => {
                    assert!(e.offset <= input.len(), "{e} past the end of {shown:?}");
                    match verdict {
                        Ok(()) => assert_eq!(e.message, "number out of range", "{shown:?}"),
                        Err(Some(at)) => {
                            assert_eq!((e.offset, e.message.starts_with("nesting")), (at, true))
                        }
                        Err(None) => {}
                    }
                }
            }
        });
    }

    #[test]
    fn rejects_what_rfc_8259_refuses() {
        for (text, offset) in
            [("01", 1), ("-01", 2), ("1.", 2), ("1.e5", 2), ("\"a\nb\"", 2), ("[\"\u{1f}\"]", 2)]
        {
            let err = parse(text).map(|v| v.to_string()).expect_err(text);
            assert_eq!(err.offset, offset, "{text:?}: {err}");
        }
        // The grammar's own edges still parse.
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("-0").unwrap(), Json::F64(-0.0));
        assert_eq!(parse("1.0e-5").unwrap(), Json::F64(1.0e-5));
        assert_eq!(parse("10E+2").unwrap(), Json::F64(1000.0));
        assert_eq!(parse("18446744073709551616").unwrap(), Json::F64(18446744073709551616.0));
        assert_eq!(parse("1e400").unwrap_err().offset, 0);
    }

    #[test]
    fn a_nesting_bomb_is_refused_not_a_stack_overflow() {
        let err = parse(&"[".repeat(20_000)).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (MAX_DEPTH, "nesting deeper than 64"));
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse(&deepest).unwrap().to_string(), deepest);
        let err = parse(&format!("[{deepest}]")).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
    }

    #[test]
    fn fields_answer_as_get_does() {
        let doc = parse(r#"{"a":1,"b":2,"a":3,"c":4}"#).unwrap();
        for order in [["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"], ["c", "a", "b"]] {
            let mut fields = Fields::new(&doc);
            for key in order {
                assert_eq!(fields.get(key), doc.get(key), "{order:?}");
            }
        }
        assert_eq!(Fields::new(&Json::U64(1)).get("a"), None);
    }

    #[test]
    fn roundtrip_object() {
        let v = Json::Obj(vec![
            ("cycles".to_owned(), Json::U64(u64::MAX)),
            ("label".to_owned(), Json::Str("RB_8+SH_8 \"quoted\"\n".to_owned())),
            ("nested".to_owned(), Json::Obj(vec![("hit".to_owned(), Json::Bool(true))])),
            ("arr".to_owned(), Json::Arr(vec![Json::U64(1), Json::F64(2.5), Json::Null])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_precision_is_preserved() {
        let text = Json::Obj(vec![("c".to_owned(), Json::U64(9_007_199_254_740_993))]).to_string();
        assert_eq!(parse(&text).unwrap().u64_field("c"), Some(9_007_199_254_740_993));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        // Regression guard: JSON has no NaN/Infinity literals, so a
        // non-finite F64 (e.g. a rate computed from a zero-duration batch
        // by code without its own guard) must degrade to `null` — emitting
        // `NaN` would make the whole journal line unparseable.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(v).to_string(), "null");
            let line = Json::Obj(vec![("rate".to_owned(), Json::F64(v))]).to_string();
            assert_eq!(line, "{\"rate\":null}");
            let doc = parse(&line).unwrap();
            assert_eq!(doc.get("rate"), Some(&Json::Null));
        }
        // Finite values are untouched by the guard.
        assert_eq!(Json::F64(2.5).to_string(), "2.5");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\u{0}binary\u{1}").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("\"\\u+041\"").is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\\u0041\" : [ true , null , -1.5e2 ] } ").unwrap();
        assert_eq!(
            v.get("aA").unwrap(),
            &Json::Arr(vec![Json::Bool(true), Json::Null, Json::F64(-150.0)])
        );
    }
}
