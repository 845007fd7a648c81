//! The two JSON string routines the crate needs — the container has no
//! JSON dependency: [`escape`] for everything rendered (responses, the
//! snapshot manifest) and [`parse_string_array`] for the one array read
//! back (the manifest's view list).

use std::fmt::Write;

/// Append `s` to `out`, escaped for inclusion in a JSON string literal.
/// Runs that need no escape are copied whole.
pub(crate) fn escape(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
        let mut text = String::from("\"");
        escape(&mut text, nasty);
        text.push_str("\", \"plain\" ] trailing");
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
