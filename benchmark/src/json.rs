//! The benchmark's own JSON layer: a value tree, an emitter and a
//! recursive-descent parser — deliberately independent of the four
//! in-tree JSON modules so a refactor of those cannot move a result.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so emitted files diff
/// cleanly; unsigned integers are kept apart from floats so 64-bit seeds
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite float is emitted as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::UInt(n) => Some(n as f64),
            Self::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Self::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements of an array (empty for any other value).
    pub fn items(&self) -> &[Json] {
        match self {
            Self::Arr(items) => items,
            _ => &[],
        }
    }

    /// The members of an object (empty for any other value).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Self::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// Emits the value on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None, 0);
        out
    }

    /// Emits the value indented by two spaces per level, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn emit(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::UInt(n) => write!(out, "{n}").expect("write to string"),
            Self::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` keeps a fraction or exponent on every float, so a
            // float never re-parses as an integer.
            Self::Num(x) => write!(out, "{x:?}").expect("write to string"),
            Self::Str(s) => emit_str(out, s),
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.emit(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Self::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    emit_str(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.emit(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

fn emit_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(pairs));
            }
            if !pairs.is_empty() && !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            pairs.push((key, self.value()?));
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !items.is_empty() && !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
            items.push(self.value()?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            hex
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("invalid utf-8 in string"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("schema", Json::str("x/v1")),
            ("seed", Json::UInt(u64::MAX)),
            ("ratio", Json::Num(1.2034)),
            ("whole", Json::Num(3.0)),
            ("tiny", Json::Num(1.1392e-5)),
            ("negative", Json::Num(-2.5)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "text",
                Json::str("a \"quoted\" line\nwith\ttabs, a \\ and é"),
            ),
            (
                "list",
                Json::Arr(vec![
                    Json::UInt(1),
                    Json::Arr(Vec::new()),
                    Json::obj::<&str>([]),
                ]),
            ),
        ])
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let doc = sample();
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert!(!doc.compact().contains('\n'));
    }

    #[test]
    fn floats_never_re_parse_as_integers_and_seeds_stay_exact() {
        assert_eq!(Json::Num(3.0).compact(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::UInt(3));
        assert_eq!(
            Json::parse(&Json::UInt(u64::MAX).compact())
                .unwrap()
                .as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn accessors_read_what_was_built() {
        let doc = sample();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("x/v1"));
        assert_eq!(doc.get("ratio").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(
            doc.get("seed").and_then(Json::as_f64),
            Some(u64::MAX as f64)
        );
        assert_eq!(doc.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("list").map(|l| l.items().len()), Some(3));
        assert!(doc.get("absent").is_none());
        assert_eq!(doc.members().len(), 10);
    }

    #[test]
    fn syntax_errors_carry_an_offset() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "tru",
            "{\"a\":1,}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("at byte"), "{bad:?} -> {err}");
        }
        assert_eq!(Json::parse("\"\\u00e9\"").unwrap(), Json::str("é"));
    }
}
