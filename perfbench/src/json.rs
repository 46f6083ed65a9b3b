//! Just enough JSON for the benchmark's output, and a field scanner for
//! the server's flat response frames.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj(fields: Vec<(&str, J)>) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{}` prints the shortest representation that round-trips,
            // so every measured digit is kept.
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            J::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            J::Str(s) => escape(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The raw scalar text of a top-level field in a flat JSON object
/// (strings without their quotes). The server's frames are flat and
/// never nest objects, so a scan for `"key":` is exact for them.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(body) = rest.strip_prefix('"') {
        let end = body.find('"')?;
        return Some(&body[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_scans() {
        let j = J::obj(vec![
            ("a", J::Num(1.25)),
            ("b", J::str("x\"y")),
            ("c", J::Arr(vec![J::Int(-3), J::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"a":1.25,"b":"x\"y","c":[-3,true]}"#);
        let frame = r#"{"type":"result","proto":1,"id":"q1","value":42,"epoch":7}"#;
        assert_eq!(field(frame, "type"), Some("result"));
        assert_eq!(field(frame, "value"), Some("42"));
        assert_eq!(field(frame, "epoch"), Some("7"));
        assert_eq!(field(frame, "missing"), None);
    }
}
