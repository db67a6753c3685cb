//! Minimal hand-rolled JSON reader for the flat one-line `sf-heartbeat/v1`
//! heartbeat files (written by `sf_obs::progress`, read by the dispatch
//! coordinator). Zero dependencies, consistent with the rest of the offline
//! stack.
//!
//! The reader is **escape-aware**: it tokenises the top-level object
//! properly (string escapes, nested objects/arrays) instead of substring
//! scanning, so a field value containing JSON-looking text — a sweep label
//! of `x"done":99,`, say — can never be mistaken for a field. That property
//! is the `sf-heartbeat/v1` parsing contract: heartbeat consumers must
//! extract fields with a tokeniser of at least this strength, never with
//! `find("\"done\":")`.

/// One top-level field value as tokenised by [`fields`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string literal, already unescaped.
    Str(String),
    /// A number, kept as its raw text (callers parse to the width they need).
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A nested object or array, kept as its raw text span.
    Raw(String),
}

/// Tokenises the top-level fields of a one-line JSON object, escape-aware.
/// Returns `None` when `text` is not a well-formed flat object (leading
/// garbage, unterminated strings, missing colons). Nested objects/arrays are
/// kept as raw spans; their inner fields are *not* surfaced — which is
/// exactly the property that makes this safe against adversarial field
/// values.
#[must_use]
pub fn fields(text: &str) -> Option<Vec<(String, FieldValue)>> {
    let mut chars = text.char_indices().peekable();
    skip_ws(&mut chars);
    if chars.next().map(|(_, c)| c) != Some('{') {
        return None;
    }
    let mut out = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek().copied() {
            Some((_, '}')) => {
                chars.next();
                return Some(out);
            }
            Some((_, ',')) if !out.is_empty() => {
                chars.next();
                skip_ws(&mut chars);
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next().map(|(_, c)| c) != Some(':') {
            return None;
        }
        skip_ws(&mut chars);
        let value = parse_value(text, &mut chars)?;
        out.push((key, value));
    }
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|&(_, c)| c.is_ascii_whitespace()) {
        chars.next();
    }
}

/// Parses a string literal starting at the current `"`, undoing the JSON
/// escapes (`\"`, `\\`, `\/`, `\n`, `\t`, `\r`, and `\uXXXX`).
fn parse_string(chars: &mut Chars<'_>) -> Option<String> {
    if chars.next().map(|(_, c)| c) != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        let (_, c) = chars.next()?;
        match c {
            '"' => return Some(out),
            '\\' => {
                let (_, esc) = chars.next()?;
                match esc {
                    '"' | '\\' | '/' => out.push(esc),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next()?;
                            code = code * 16 + h.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
            }
            _ => out.push(c),
        }
    }
}

fn parse_value(text: &str, chars: &mut Chars<'_>) -> Option<FieldValue> {
    match chars.peek().copied()? {
        (_, '"') => Some(FieldValue::Str(parse_string(chars)?)),
        (start, '{' | '[') => Some(FieldValue::Raw(raw_span(text, chars, start)?)),
        (start, 't' | 'f' | 'n') => {
            let mut end = start;
            while chars.peek().is_some_and(|&(_, c)| c.is_ascii_alphabetic()) {
                end = chars.next()?.0 + 1;
            }
            match &text[start..end] {
                "true" => Some(FieldValue::Bool(true)),
                "false" => Some(FieldValue::Bool(false)),
                "null" => Some(FieldValue::Null),
                _ => None,
            }
        }
        (start, c) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            while chars.peek().is_some_and(|&(_, c)| {
                c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
            }) {
                end = chars.next()?.0 + 1;
            }
            Some(FieldValue::Num(text[start..end].to_string()))
        }
        _ => None,
    }
}

/// Consumes a nested object/array (strings and nesting respected) and
/// returns its raw text span.
fn raw_span(text: &str, chars: &mut Chars<'_>, start: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    loop {
        let (at, c) = chars.next()?;
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..=at].to_string());
                }
            }
            _ => {}
        }
    }
}

/// The `key` field of flat object `text` as a `u64`, escape-aware. `None`
/// when the document is malformed, the field is absent, or it is not an
/// unsigned integer.
#[must_use]
pub fn field_u64(text: &str, key: &str) -> Option<u64> {
    match lookup(text, key)? {
        FieldValue::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// The `key` field of flat object `text` as an unescaped string.
#[must_use]
pub fn field_str(text: &str, key: &str) -> Option<String> {
    match lookup(text, key)? {
        FieldValue::Str(s) => Some(s),
        _ => None,
    }
}

fn lookup(text: &str, key: &str) -> Option<FieldValue> {
    fields(text)?
        .into_iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_reader_round_trip_plain_fields() {
        let line = sf_obs::progress::heartbeat_line("fig10", 42, 64, 40, 1234, true);
        assert_eq!(
            field_str(&line, "schema").as_deref(),
            Some("sf-heartbeat/v1")
        );
        assert_eq!(field_str(&line, "label").as_deref(), Some("fig10"));
        assert_eq!(field_u64(&line, "done"), Some(42));
        assert_eq!(field_u64(&line, "elapsed_ms"), Some(1234));
        assert_eq!(lookup(&line, "finished"), Some(FieldValue::Bool(true)));
        assert_eq!(field_u64(&line, "absent"), None);
        assert_eq!(
            lookup(r#"{"cells":[1,2.5,"x"],"gone":null}"#, "cells"),
            Some(FieldValue::Raw(r#"[1,2.5,"x"]"#.to_string()))
        );
        assert_eq!(
            lookup(r#"{"cells":[1,2.5,"x"],"gone":null}"#, "gone"),
            Some(FieldValue::Null)
        );
    }

    #[test]
    fn escaped_strings_round_trip() {
        let nasty = "a\"b\\c\nd";
        let line = sf_obs::progress::heartbeat_line(nasty, 3, 8, 3, 0, false);
        assert_eq!(field_str(&line, "label").as_deref(), Some(nasty));
        assert_eq!(field_u64(&line, "done"), Some(3));
        let line = r#"{"label":"tab\there\r\/\u0001","done":3}"#;
        assert_eq!(
            field_str(line, "label").as_deref(),
            Some("tab\there\r/\u{1}")
        );
    }

    #[test]
    fn adversarial_field_values_cannot_shadow_real_fields() {
        // The label *contains* a JSON-looking "done":99 — a naive substring
        // scan would return 99; the tokeniser must return the real field.
        let line = sf_obs::progress::heartbeat_line("x\"done\":99,", 3, 8, 3, 0, false);
        assert_eq!(field_u64(&line, "done"), Some(3));
        assert_eq!(field_u64(&line, "total"), Some(8));
    }

    #[test]
    fn nested_values_are_opaque_spans() {
        let line = r#"{"inner":{"done":99,"arr":[1,{"total":7}]},"done":5}"#;
        assert_eq!(field_u64(line, "done"), Some(5));
        assert_eq!(field_u64(line, "total"), None);
        assert_eq!(
            lookup(line, "inner"),
            Some(FieldValue::Raw(
                r#"{"done":99,"arr":[1,{"total":7}]}"#.to_string()
            ))
        );
    }

    #[test]
    fn malformed_documents_parse_to_none() {
        assert_eq!(fields("not json"), None);
        assert_eq!(fields("{\"unterminated"), None);
        assert_eq!(fields("{\"k\" 5}"), None);
        assert_eq!(fields(""), None);
        assert!(fields("{}").is_some_and(|f| f.is_empty()));
        assert!(fields("  {\"a\":1}\n").is_some());
    }
}
