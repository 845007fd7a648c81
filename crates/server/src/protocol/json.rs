//! The two JSON string routines the crate needs — the container has no
//! JSON dependency: [`escape`] for everything rendered (responses, the
//! snapshot manifest) and [`parse_string_array`] for the one array read
//! back (the manifest's view list).

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Parse a JSON array of strings from just after its opening `[`:
/// escape-aware (everything [`escape`] emits, short or `\u` form) and
/// tolerant of whitespace. Text after the closing `]` is not looked at.
///
/// # Errors
/// What is malformed, for the caller to put its file name in front of.
pub(crate) fn parse_string_array(text: &str) -> Result<Vec<String>, &'static str> {
    let mut out = Vec::new();
    let mut chars = text.chars();
    loop {
        // Between elements: skip whitespace and separators until a string
        // opens or the array closes.
        loop {
            match chars.next() {
                Some(']') => return Ok(out),
                Some('"') => break,
                Some(c) if c.is_whitespace() || c == ',' => continue,
                _ => return Err("malformed string array"),
            }
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape")?;
                        s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    _ => return Err("bad escape"),
                },
                Some(c) => s.push(c),
                None => return Err("unterminated string"),
            }
        }
        out.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rendered_string_parses_back() {
        let nasty = "a\"b\\c\nd\re\tf\u{1}g";
        let text = format!("\"{}\", \"plain\" ] trailing", escape(nasty));
        assert_eq!(parse_string_array(&text).unwrap(), vec![nasty, "plain"]);
        assert_eq!(parse_string_array("]").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn malformed_arrays_are_refused() {
        for bad in [
            "\"open",
            "\"x\\q\"]",
            "\"\\u00zz\"]",
            "\"\\ud800\"]",
            "7]",
            "",
        ] {
            assert!(parse_string_array(bad).is_err(), "{bad:?}");
        }
    }
}
