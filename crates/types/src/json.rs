//! The workspace's one JSON value: every artefact writer (`rumor-obs`
//! traces, `rumor-fuzz` records, `rumor-bench` experiment payloads) and
//! the one reader (`fuzz --replay`) go through it.
//!
//! The fuzzer's replay guarantee is *bit-for-bit*: serializing a record,
//! parsing it back and serializing again must produce the identical byte
//! string. A `f64`-backed number type cannot promise that for the 64-bit
//! master seeds the records carry, so [`Json::Num`] stores the numeric
//! *literal text* and emits it verbatim; callers parse it to `u64`/`f64`
//! on demand. Object members keep insertion order for the same reason.
//!
//! Floats have one spelling ([`Json::from_f64`]): Rust's shortest
//! round-tripping `Display` form, a finite integral value with one
//! decimal (`1.0`), a non-finite one as `null`.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. Every schema in the tree
/// stays below ten; the cap exists because the parser recurses per level
/// and its input (`fuzz --replay RECORD.json`) comes from outside.
const MAX_DEPTH: usize = 128;

/// An insertion-ordered JSON value with text-preserving numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number stored as its literal text, emitted verbatim.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
    /// A pre-rendered fragment emitted verbatim — how a trace embeds one
    /// compact event per line inside a pretty document. Write-only:
    /// [`parse`] never produces it.
    Raw(String),
}

impl Json {
    /// A number from a `u64`, stored exactly.
    pub fn from_u64(value: u64) -> Json {
        Json::Num(value.to_string())
    }

    /// A number from a `u32`.
    pub fn from_u32(value: u32) -> Json {
        Json::Num(value.to_string())
    }

    /// A number from a `usize`.
    pub fn from_usize(value: usize) -> Json {
        Json::Num(value.to_string())
    }

    /// A number from an `f64`: the shortest `Display` form that re-parses
    /// to the identical bits, with one decimal for integral values
    /// (`1.0`, never `1`); `null` for NaN and the infinities, which JSON
    /// cannot spell.
    pub fn from_f64(value: f64) -> Json {
        if !value.is_finite() {
            Json::Null
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            Json::Num(format!("{value:.1}"))
        } else {
            Json::Num(format!("{value}"))
        }
    }

    /// A string value.
    pub fn from_text(value: &str) -> Json {
        Json::Str(value.to_owned())
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The literal text if this is a number.
    fn num_text(&self) -> Option<&str> {
        match self {
            Json::Num(text) => Some(text),
            _ => None,
        }
    }

    /// Parses the number literal as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.num_text()?.parse().ok()
    }

    /// Parses the number literal as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.num_text()?.parse().ok()
    }

    /// Parses the number literal as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.num_text()?.parse().ok()
    }

    /// Parses the number literal as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.num_text()?.parse().ok()
    }

    /// The string if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (no trailing newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) | Json::Raw(text) => out.push_str(text),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    open_line(out, i, indent + 1);
                    item.write(out, indent + 1);
                }
                open_line(out, 0, indent);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    open_line(out, i, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                open_line(out, 0, indent);
                out.push('}');
            }
        }
    }
}

/// Ends the current line (after a `,` when `index` says an element
/// precedes) and indents the next one.
fn open_line(out: &mut String, index: usize, indent: usize) {
    if index > 0 {
        out.push(',');
    }
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parses a JSON document.
///
/// # Errors
///
/// A message naming the byte offset of the first malformed token, of
/// trailing data, or of the first container nested more than 128
/// deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

/// Recursive-descent state: the document and a byte cursor that only
/// ever rests on a `char` boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses one value sitting `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let literal = &self.text[start..self.pos];
        if literal.is_empty() || literal.parse::<f64>().is_err() {
            return Err(format!("invalid number `{literal}` at byte {start}"));
        }
        Ok(Json::Num(literal.to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Plain characters are copied a run at a time, up to the next
            // `"` or `\`: one pass over the string, however long.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if rest.as_bytes()[run] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape whose `\` sits under the cursor.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        }
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected `:` at byte {}", self.pos));
            }
            self.pos += 1;
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
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
    fn u64_seed_survives_a_round_trip_bit_for_bit() {
        // Larger than 2^53: a f64-backed number type would corrupt it.
        let seed = 18_446_744_073_709_551_557u64;
        let doc = Json::obj([("seed", Json::from_u64(seed))]);
        let text = doc.pretty();
        let back = parse(&text).expect("parses");
        assert_eq!(back.get("seed").and_then(Json::as_u64), Some(seed));
        assert_eq!(back.pretty(), text, "emit∘parse must be the identity");
    }

    #[test]
    fn f64_display_form_round_trips_exactly() {
        let values = [
            0.1,
            1.0 / 3.0,
            0.7284915615252623,
            1e-9,
            0.0,
            -0.0,
            3.0,
            1e300,
        ];
        for &v in &values {
            let text = Json::from_f64(v).pretty();
            let back: f64 = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} drifted");
        }
    }

    #[test]
    fn object_order_and_escapes_are_preserved() {
        let doc = Json::obj([
            ("z", Json::from_text("line\nbreak \"quoted\"")),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let text = doc.pretty();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
        assert_eq!(parse(&text).expect("parses"), doc);
    }

    #[test]
    fn pretty_prints_stable_layout() {
        let doc = Json::obj([
            ("schema", Json::from_text("rumor-obs/trace/v1")),
            ("n", Json::from_u32(3)),
            ("f", Json::from_f64(0.5)),
            ("whole", Json::from_f64(2.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("empty", Json::Arr(vec![])),
            (
                "events",
                Json::Arr(vec![Json::Raw("{\"round\":0}".to_owned())]),
            ),
        ]);
        let expected = "{\n  \"schema\": \"rumor-obs/trace/v1\",\n  \"n\": 3,\n  \"f\": 0.5,\n  \"whole\": 2.0,\n  \"flag\": true,\n  \"none\": null,\n  \"empty\": [],\n  \"events\": [\n    {\"round\":0}\n  ]\n}";
        assert_eq!(doc.pretty(), expected);
    }

    #[test]
    fn objects_pretty_print_with_indentation() {
        let j = Json::obj([("k", Json::from_f64(1.0)), ("s", Json::from_text("v"))]);
        assert_eq!(j.pretty(), "{\n  \"k\": 1.0,\n  \"s\": \"v\"\n}");
    }

    #[test]
    fn empty_collections_are_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn escapes_control_characters() {
        let doc = Json::from_text("a\"b\\c\nd\u{1}");
        assert_eq!(doc.pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&doc.pretty()), Ok(doc));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"open",
            "\"bad \\x escape\"",
            "\"short \\u12\"",
            "{} garbage",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_into_the_ground() {
        // 100 000 levels overflowed the stack before the cap existed.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let err = parse(&open.repeat(100_000)).expect_err("too deep");
            assert!(err.contains("nesting deeper than 128"), "{err}");
            let nested =
                |levels: usize| format!("{}1{}", open.repeat(levels), close.repeat(levels));
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one too deep");
            let offset = open.len() * MAX_DEPTH;
            assert!(err.ends_with(&format!("at byte {offset}")), "{err}");
        }
    }

    #[test]
    fn string_parsing_is_linear() {
        // Re-validating the rest of the document per character made this
        // quadratic: 512 KiB took 4 s, 4 MiB would not finish.
        let body = "x\u{e9}\u{4e16}\u{1f600}".repeat((4 << 20) / 8);
        let text = format!("[\"{body}\\n\"]");
        assert!(text.len() > 4 << 20);
        let doc = parse(&text).expect("parses");
        let parsed = doc.as_array().unwrap()[0].as_str().unwrap();
        assert_eq!(parsed.len(), body.len() + 1);
        assert!(parsed.starts_with(&body) && parsed.ends_with('\n'));
    }
}
