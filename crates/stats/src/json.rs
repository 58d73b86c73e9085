//! A minimal JSON reader/writer, kept dependency-free like the rest of the
//! workspace (see DESIGN.md §"Dependency policy"). It covers exactly what
//! the workspace exchanges: sweep specs, the result files `simulate --json`
//! writes (and the sweep service reads back), resilience reports and
//! `results.jsonl` records. Not a general-purpose implementation — no
//! `\uXXXX` surrogate pairs, and parsed numbers are `f64`-backed (every
//! counter we read back fits in 2^53; writers use [`Json::U64`] for the
//! values that may not, such as seeds).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64-backed).
    Num(f64),
    /// An unsigned integer written digit-exact. Writer-side only: the
    /// parser yields [`Json::Num`] for every number.
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse `text` into a value, requiring it to be fully consumed.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Numeric payload as an unsigned integer (rejects negatives and
    /// fractions).
    pub fn as_u64(&self) -> Option<u64> {
        if let Json::U64(n) = self {
            return Some(*n);
        }
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
    }

    /// Boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize back to compact JSON. Used to copy nested objects (e.g.
    /// a `simulate` dump's `"resilience"` report) into result records
    /// verbatim. Numbers that are whole print without a fraction, so
    /// counters round-trip as integers.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    /// Serialize an object with one top-level `"key": value` per line
    /// (nested values compact), so two dumps can be compared with line
    /// tools such as `diff` and `grep`. Anything but an object dumps
    /// compact.
    pub fn dump_lines(&self) -> String {
        let Json::Obj(fields) = self else {
            return self.dump();
        };
        let mut out = String::from("{\n");
        for (i, (k, v)) in fields.iter().enumerate() {
            let _ = write!(out, "  \"{}\": ", escape(k));
            v.dump_into(&mut out);
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn dump_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.dump_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", escape(k));
                    v.dump_into(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// Escape a string for embedding in JSON output (adds no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd";
        let wrapped = format!("\"{}\"", escape(s));
        assert_eq!(Json::parse(&wrapped).unwrap().as_str(), Some(s));
    }

    #[test]
    fn u64_dumps_digit_exact_and_lines_parse_back() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let big = (1u64 << 53) + 1;
        let doc = Json::Obj(vec![
            ("seed".into(), Json::U64(big)),
            ("name".into(), Json::Str("a\"b".into())),
            (
                "nested".into(),
                Json::Obj(vec![("x".into(), Json::Num(1.5))]),
            ),
        ]);
        let text = doc.dump_lines();
        assert_eq!(
            text,
            "{\n  \"seed\": 9007199254740993,\n  \"name\": \"a\\\"b\",\n  \"nested\": {\"x\":1.5}\n}\n"
        );
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(big));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(
            back.get("nested").unwrap().get("x").unwrap().as_f64(),
            Some(1.5)
        );
    }

    #[test]
    fn dump_roundtrips_and_keeps_integers_whole() {
        let text = r#"{"protocol":"Gossip","coverage":0.9844,"delivered":63,"latency":{"p50":8024,"samples":[1,2,3]},"ok":true,"none":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.dump(), text);
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
    }
}
