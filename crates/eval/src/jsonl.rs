//! The one reader for the flat JSON lines this crate reads back:
//! campaign, gap and schedule-cache journal lines, the service's `STATS`
//! and `METRICS` lines, and the soak harness's counters.
//!
//! Every such line is written by this workspace, so the reader is a
//! scanner rather than a parser. [`field`] finds the first member with a
//! given name anywhere in a line and returns its raw value text;
//! [`num`] and [`str_field`] decode a number or a string, and [`members`]
//! and [`elements`] walk one level of an object or array. All of them skip
//! the contents of string literals, so a quote, brace or bracket inside
//! a string (a kernel named `x}y`, say) is never taken for structure.

/// Byte length of the string literal opening `text`, both quotes
/// included, honouring backslash escapes.
fn string_len(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Byte length of the value opening `text`: a string literal, a
/// balanced object or array, or a bare token (number, `null`) that ends
/// at the next `,`, `}`, `]` or whitespace.
fn value_len(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    match bytes.first()? {
        b'"' => string_len(text),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        i += string_len(&text[i..])?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            None
        }
        _ => Some(
            text.find(|c: char| matches!(c, ',' | '}' | ']') || c.is_whitespace())
                .unwrap_or(text.len()),
        ),
    }
}

/// The raw value text of the first member named `key` anywhere in
/// `text` (at any depth, outside string literals).
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let mut i = 0;
    while let Some(quote) = text[i..].find('"') {
        let start = i + quote;
        let len = string_len(&text[start..])?;
        i = start + len;
        if let Some(value) = text[i..].trim_start().strip_prefix(':') {
            if &text[start + 1..i - 1] == key {
                let value = value.trim_start();
                return Some(&value[..value_len(value)?]);
            }
        }
    }
    None
}

/// The leading decimal digits of a raw value, as a `u64` (`None` for a
/// string, `null`, or a value with no leading digit).
pub fn num(value: &str) -> Option<u64> {
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Decodes a raw string-literal value: the escapes
/// [`csched_core::trace::json_escape`] writes.
fn string(value: &str) -> Option<String> {
    let mut chars = value.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                '\\' => '\\',
                '"' => '"',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                _ => return None,
            }),
            c => out.push(c),
        }
    }
}

/// [`field`] decoded by [`num`].
pub fn num_field(text: &str, key: &str) -> Option<u64> {
    field(text, key).and_then(num)
}

/// [`field`] decoded as a string literal.
pub fn str_field(text: &str, key: &str) -> Option<String> {
    field(text, key).and_then(string)
}

/// The `(name, raw value)` members of the raw object `object`, in order;
/// scanning stops at the first malformed member.
pub fn members(object: &str) -> Vec<(String, &str)> {
    let mut out = Vec::new();
    let Some(mut rest) = object.strip_prefix('{') else {
        return out;
    };
    loop {
        rest = rest.trim_start();
        let Some(len) = string_len(rest) else { break };
        let Some(name) = string(&rest[..len]) else {
            break;
        };
        let Some(value) = rest[len..].trim_start().strip_prefix(':') else {
            break;
        };
        let value = value.trim_start();
        let Some(len) = value_len(value) else { break };
        out.push((name, &value[..len]));
        match value[len..].trim_start().strip_prefix(',') {
            Some(next) => rest = next,
            None => break,
        }
    }
    out
}

/// The raw elements of the raw array `array`, in order; scanning stops
/// at the first malformed element.
pub fn elements(array: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let Some(mut rest) = array.strip_prefix('[') else {
        return out;
    };
    loop {
        rest = rest.trim_start();
        if rest.starts_with(']') {
            break;
        }
        let Some(len) = value_len(rest) else { break };
        out.push(&rest[..len]);
        match rest[len..].trim_start().strip_prefix(',') {
            Some(next) => rest = next,
            None => break,
        }
    }
    out
}
