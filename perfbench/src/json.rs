//! A validating JSON scanner for response bodies.
//!
//! The generator checks every response, tens of thousands per run, so it
//! validates syntax in one pass without building a value tree and keeps
//! only the top-level numeric fields the checks read.

use std::collections::HashMap;

/// A syntactically valid JSON document's top-level object fields that hold
/// unsigned integers.
pub fn top_level_u64s(text: &str) -> Option<HashMap<String, u64>> {
    let mut s = Scanner { b: text.as_bytes(), i: 0, fields: HashMap::new() };
    s.value(0)?;
    s.ws();
    (s.i == s.b.len()).then_some(s.fields)
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
    fields: HashMap<String, u64>,
}

impl Scanner<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.b.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn value(&mut self, depth: usize) -> Option<()> {
        self.ws();
        match *self.b.get(self.i)? {
            b'{' => self.object(depth),
            b'[' => {
                self.i += 1;
                if self.eat(b']').is_some() {
                    return Some(());
                }
                loop {
                    self.value(depth + 1)?;
                    if self.eat(b']').is_some() {
                        return Some(());
                    }
                    self.eat(b',')?;
                }
            }
            b'"' => self.string().map(drop),
            b't' => self.literal(b"true"),
            b'f' => self.literal(b"false"),
            b'n' => self.literal(b"null"),
            _ => self.number().map(drop),
        }
    }

    fn object(&mut self, depth: usize) -> Option<()> {
        self.i += 1;
        if self.eat(b'}').is_some() {
            return Some(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            self.ws();
            let start = self.i;
            self.value(depth + 1)?;
            if depth == 0 {
                if let Ok(n) = std::str::from_utf8(&self.b[start..self.i]).ok()?.parse::<u64>() {
                    self.fields.insert(key, n);
                }
            }
            if self.eat(b'}').is_some() {
                return Some(());
            }
            self.eat(b',')?;
        }
    }

    fn literal(&mut self, word: &[u8]) -> Option<()> {
        self.b[self.i..].starts_with(word).then(|| self.i += word.len())
    }

    fn string(&mut self) -> Option<String> {
        if self.b.get(self.i) != Some(&b'"') {
            return None;
        }
        let start = self.i + 1;
        self.i = start;
        loop {
            match *self.b.get(self.i)? {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    match *self.b.get(self.i)? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return None;
                            }
                            self.i += 4;
                        }
                        _ => return None,
                    }
                }
                c if c < 0x20 => return None,
                _ => {}
            }
            self.i += 1;
        }
        let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.i += 1;
        Some(s)
    }

    fn number(&mut self) -> Option<()> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |s: &mut Self| {
            let from = s.i;
            while s.i < s.b.len() && s.b[s.i].is_ascii_digit() {
                s.i += 1;
            }
            s.i > from
        };
        if !digits(self) {
            return None;
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            digits(self).then_some(())?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self).then_some(())?;
        }
        (self.i > start).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents_and_keeps_top_level_integers() {
        let f = top_level_u64s(
            r#" {"total": 42, "rank": 3, "score": 0.5, "hits": [{"total": 7}, -1e-3, "a\"bé"],
                "ok": true, "none": null, "nested": {"case_id": 9}} "#,
        )
        .unwrap();
        assert_eq!(f.get("total"), Some(&42));
        assert_eq!(f.get("rank"), Some(&3));
        assert_eq!(f.get("score"), None);
        assert_eq!(f.get("case_id"), None);
        assert!(top_level_u64s("[]").unwrap().is_empty());
        assert!(top_level_u64s("{}").is_some());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            r#"{"a": 1,}"#,
            r#"{"a" 1}"#,
            r#"{"a": 01x}"#,
            r#"{"a": "unterminated}"#,
            r#"{"a": tru}"#,
            r#"[1, 2"#,
            r#"{"a": 1} trailing"#,
            r#"{"a": "\q"}"#,
            r#"{"a": 1.}"#,
        ] {
            assert!(top_level_u64s(bad).is_none(), "{bad:?}");
        }
    }
}
