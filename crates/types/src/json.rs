//! JSON string escaping, shared by every hand-written JSON emitter in
//! the workspace so their output cannot drift apart.

use std::fmt::Write;

/// Appends `s` to `out` as the body of a JSON string literal (without
/// the surrounding quotes): `"` and `\` are backslash-escaped, `\n`,
/// `\r` and `\t` take their short forms, every other control character
/// below U+0020 becomes `\u00XX`, and everything else is copied as is.
///
/// ```
/// let mut out = String::new();
/// qz_types::json::escape_into(&mut out, "a\"b\tc");
/// assert_eq!(out, r#"a\"b\tc"#);
/// ```
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// [`escape_into`] into a fresh `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls_only() {
        let s = "\" \\ \n \r \t \u{1} é 😀";
        assert_eq!(escape(s), "\\\" \\\\ \\n \\r \\t \\u0001 é 😀");
    }
}
