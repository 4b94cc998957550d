//! A self-contained parser for the YAML subset used by the Bifrost DSL.
//!
//! Supported constructs:
//!
//! * block mappings (`key: value` and `key:` followed by an indented block),
//! * block sequences (`- item`, including compact mappings `- key: value`),
//! * scalars: integers, floats, booleans, null, single/double-quoted strings,
//!   and plain strings,
//! * `#` comments and blank lines,
//! * simple flow sequences of scalars (`[a, b, c]`).
//!
//! Anchors, aliases, tags, multi-line scalars, and flow mappings are not
//! supported — the DSL does not need them.

use crate::error::DslError;
use std::collections::BTreeMap;

/// A parsed YAML value.
#[derive(Debug, Clone, PartialEq)]
pub enum YamlValue {
    /// `null` / `~` / empty value.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer scalar.
    Int(i64),
    /// A floating-point scalar.
    Float(f64),
    /// A string scalar (quoted or plain).
    Str(String),
    /// A sequence of values.
    Seq(Vec<YamlValue>),
    /// A mapping with insertion-ordered keys.
    Map(Vec<(String, YamlValue)>),
}

impl YamlValue {
    /// The value of a mapping key, if this is a map and the key exists.
    pub fn get(&self, key: &str) -> Option<&YamlValue> {
        match self {
            YamlValue::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            YamlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an integer (integers only, no float coercion).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            YamlValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as a float (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            YamlValue::Float(v) => Some(*v),
            YamlValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            YamlValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as a sequence.
    pub fn as_seq(&self) -> Option<&[YamlValue]> {
        match self {
            YamlValue::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// This value as a map (entries in document order).
    pub fn as_map(&self) -> Option<&[(String, YamlValue)]> {
        match self {
            YamlValue::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Whether this is the null value.
    pub fn is_null(&self) -> bool {
        matches!(self, YamlValue::Null)
    }

    /// Renders the value as a scalar string when it is a scalar of any type
    /// (used for fields that accept either `5` or `"5"`).
    pub fn scalar_to_string(&self) -> Option<String> {
        match self {
            YamlValue::Str(s) => Some(s.clone()),
            YamlValue::Int(v) => Some(v.to_string()),
            YamlValue::Float(v) => Some(v.to_string()),
            YamlValue::Bool(v) => Some(v.to_string()),
            _ => None,
        }
    }

    /// Collects a map into a `BTreeMap<String, String>` of scalar values,
    /// skipping non-scalar entries.
    pub fn to_string_map(&self) -> BTreeMap<String, String> {
        self.as_map()
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|(k, v)| v.scalar_to_string().map(|v| (k.clone(), v)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// One logical source line: its indentation, content, and 1-based number.
#[derive(Debug, Clone)]
struct Line {
    indent: usize,
    content: String,
    number: usize,
}

/// Parses a YAML document into a [`YamlValue`].
///
/// # Errors
///
/// Returns [`DslError::Syntax`] describing the first problem found.
pub fn parse(source: &str) -> Result<YamlValue, DslError> {
    let lines = logical_lines(source);
    if lines.is_empty() {
        return Ok(YamlValue::Null);
    }
    let mut pos = 0;
    let value = parse_block(&lines, &mut pos, lines[0].indent)?;
    if pos < lines.len() {
        return Err(DslError::syntax(
            lines[pos].number,
            format!("unexpected content '{}'", lines[pos].content),
        ));
    }
    Ok(value)
}

/// Strips comments and blank lines, records indentation.
fn logical_lines(source: &str) -> Vec<Line> {
    source
        .lines()
        .enumerate()
        .filter_map(|(idx, raw)| {
            let without_comment = strip_comment(raw);
            let trimmed = without_comment.trim_end();
            if trimmed.trim().is_empty() {
                return None;
            }
            let indent = trimmed.len() - trimmed.trim_start().len();
            Some(Line {
                indent,
                content: trimmed.trim_start().to_string(),
                number: idx + 1,
            })
        })
        .collect()
}

/// Removes a trailing comment that is not inside a quoted string.
fn strip_comment(line: &str) -> String {
    let mut result = String::with_capacity(line.len());
    let mut in_single = false;
    let mut in_double = false;
    for c in line.chars() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            '#' if !in_single && !in_double => break,
            _ => {}
        }
        result.push(c);
    }
    result
}

/// Parses the block starting at `pos` whose lines are indented exactly
/// `indent`.
fn parse_block(lines: &[Line], pos: &mut usize, indent: usize) -> Result<YamlValue, DslError> {
    let line = &lines[*pos];
    if line.content.starts_with("- ") || line.content == "-" {
        parse_sequence(lines, pos, indent)
    } else {
        parse_mapping(lines, pos, indent)
    }
}

fn parse_sequence(lines: &[Line], pos: &mut usize, indent: usize) -> Result<YamlValue, DslError> {
    let mut items = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(DslError::syntax(
                line.number,
                format!("unexpected indentation {} (expected {indent})", line.indent),
            ));
        }
        if !(line.content.starts_with("- ") || line.content == "-") {
            break;
        }
        let rest = line.content[1..].trim_start().to_string();
        let item_number = line.number;
        if rest.is_empty() {
            // "-" alone: the item is the indented block below.
            *pos += 1;
            if *pos < lines.len() && lines[*pos].indent > indent {
                let child_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, child_indent)?);
            } else {
                items.push(YamlValue::Null);
            }
        } else if let Some((key, value)) = split_key_value(&rest) {
            // Compact mapping: "- key: value" — the mapping continues on the
            // following lines indented deeper than the dash.
            *pos += 1;
            let mut entries = Vec::new();
            let first_value = if value.is_empty() {
                // The value of the first key may itself be a nested block.
                if *pos < lines.len() && lines[*pos].indent > indent + 1 {
                    let child_indent = lines[*pos].indent;
                    parse_block(lines, pos, child_indent)?
                } else {
                    YamlValue::Null
                }
            } else {
                parse_scalar(&value, item_number)?
            };
            entries.push((key, first_value));
            // Remaining keys of the compact mapping sit deeper than the dash
            // column.
            while *pos < lines.len()
                && lines[*pos].indent > indent
                && !(lines[*pos].content.starts_with("- ") || lines[*pos].content == "-")
            {
                let continuation_indent = lines[*pos].indent;
                let map = parse_mapping(lines, pos, continuation_indent)?;
                if let YamlValue::Map(more) = map {
                    entries.extend(more);
                }
            }
            items.push(YamlValue::Map(entries));
        } else {
            // Plain scalar item.
            items.push(parse_scalar(&rest, item_number)?);
            *pos += 1;
        }
    }
    Ok(YamlValue::Seq(items))
}

fn parse_mapping(lines: &[Line], pos: &mut usize, indent: usize) -> Result<YamlValue, DslError> {
    let mut entries: Vec<(String, YamlValue)> = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(DslError::syntax(
                line.number,
                format!("unexpected indentation {} (expected {indent})", line.indent),
            ));
        }
        if line.content.starts_with("- ") || line.content == "-" {
            break;
        }
        let Some((key, value)) = split_key_value(&line.content) else {
            return Err(DslError::syntax(
                line.number,
                format!("expected 'key: value', got '{}'", line.content),
            ));
        };
        if entries.iter().any(|(existing, _)| existing == &key) {
            return Err(DslError::syntax(
                line.number,
                format!("duplicate key '{key}'"),
            ));
        }
        let line_number = line.number;
        *pos += 1;
        let parsed = if value.is_empty() {
            // Nested block (map or sequence) or null.
            if *pos < lines.len() && lines[*pos].indent > indent {
                let child_indent = lines[*pos].indent;
                parse_block(lines, pos, child_indent)?
            } else if *pos < lines.len()
                && lines[*pos].indent == indent
                && (lines[*pos].content.starts_with("- ") || lines[*pos].content == "-")
            {
                // Sequences are commonly indented at the same level as the key.
                parse_sequence(lines, pos, indent)?
            } else {
                YamlValue::Null
            }
        } else {
            parse_scalar(&value, line_number)?
        };
        entries.push((key, parsed));
    }
    Ok(YamlValue::Map(entries))
}

/// Splits `key: value` respecting quotes. Returns `None` when the line has
/// no top-level colon.
fn split_key_value(content: &str) -> Option<(String, String)> {
    let mut in_single = false;
    let mut in_double = false;
    for (idx, c) in content.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            ':' if !in_single && !in_double => {
                let after = &content[idx + 1..];
                if after.is_empty() || after.starts_with(' ') {
                    let key = content[..idx].trim().trim_matches('"').trim_matches('\'');
                    return Some((key.to_string(), after.trim().to_string()));
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses a scalar token.
fn parse_scalar(token: &str, line: usize) -> Result<YamlValue, DslError> {
    let token = token.trim();
    if token.is_empty() || token == "~" || token == "null" {
        return Ok(YamlValue::Null);
    }
    if let Some(rest) = token.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(DslError::syntax(
                line,
                format!("unterminated flow sequence '{token}'"),
            ));
        };
        let items = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_scalar(s, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(YamlValue::Seq(items));
    }
    if (token.starts_with('"') && token.ends_with('"') && token.len() >= 2)
        || (token.starts_with('\'') && token.ends_with('\'') && token.len() >= 2)
    {
        return Ok(YamlValue::Str(token[1..token.len() - 1].to_string()));
    }
    match token {
        "true" | "True" => return Ok(YamlValue::Bool(true)),
        "false" | "False" => return Ok(YamlValue::Bool(false)),
        _ => {}
    }
    if let Ok(int) = token.parse::<i64>() {
        return Ok(YamlValue::Int(int));
    }
    if let Ok(float) = token.parse::<f64>() {
        return Ok(YamlValue::Float(float));
    }
    Ok(YamlValue::Str(token.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        let doc = parse("a: 1\nb: 2.5\nc: true\nd: hello\ne: \"quoted: value\"\nf: null\ng: ~\n")
            .unwrap();
        assert_eq!(doc.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("d").unwrap().as_str(), Some("hello"));
        assert_eq!(doc.get("e").unwrap().as_str(), Some("quoted: value"));
        assert!(doc.get("f").unwrap().is_null());
        assert!(doc.get("g").unwrap().is_null());
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parses_nested_mappings() {
        let doc = parse("outer:\n  inner:\n    deep: 3\n  sibling: x\n").unwrap();
        let outer = doc.get("outer").unwrap();
        assert_eq!(
            outer.get("inner").unwrap().get("deep").unwrap().as_i64(),
            Some(3)
        );
        assert_eq!(outer.get("sibling").unwrap().as_str(), Some("x"));
        assert_eq!(outer.as_map().unwrap().len(), 2);
    }

    #[test]
    fn parses_sequences_of_scalars_and_maps() {
        let doc = parse("items:\n  - 1\n  - 2\npeople:\n  - name: ada\n    age: 36\n  - name: grace\n    age: 45\n").unwrap();
        let items = doc.get("items").unwrap().as_seq().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].as_i64(), Some(2));
        let people = doc.get("people").unwrap().as_seq().unwrap();
        assert_eq!(people.len(), 2);
        assert_eq!(people[0].get("name").unwrap().as_str(), Some("ada"));
        assert_eq!(people[1].get("age").unwrap().as_i64(), Some(45));
    }

    #[test]
    fn parses_sequence_at_same_indent_as_key() {
        let doc = parse("services:\n- search\n- product\n").unwrap();
        let services = doc.get("services").unwrap().as_seq().unwrap();
        assert_eq!(services.len(), 2);
        assert_eq!(services[0].as_str(), Some("search"));
    }

    #[test]
    fn parses_compact_mapping_with_nested_block() {
        let source = r#"
routes:
  - route:
      from: search
      to: fastSearch
    filters:
      - traffic:
          percentage: 100
          shadow: true
          intervalTime: 60
"#;
        let doc = parse(source).unwrap();
        let routes = doc.get("routes").unwrap().as_seq().unwrap();
        assert_eq!(routes.len(), 1);
        let route = routes[0].get("route").unwrap();
        assert_eq!(route.get("from").unwrap().as_str(), Some("search"));
        let filters = routes[0].get("filters").unwrap().as_seq().unwrap();
        let traffic = filters[0].get("traffic").unwrap();
        assert_eq!(traffic.get("percentage").unwrap().as_i64(), Some(100));
        assert_eq!(traffic.get("shadow").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_listing1_style_metric() {
        let source = r#"
- metric:
    providers:
      - prometheus:
          name: search_error
          query: request_errors{instance="search:80"}
    intervalTime: 5
    intervalLimit: 12
    threshold: 12
    validator: "<5"
"#;
        let doc = parse(source).unwrap();
        let seq = doc.as_seq().unwrap();
        let metric = seq[0].get("metric").unwrap();
        assert_eq!(metric.get("intervalTime").unwrap().as_i64(), Some(5));
        assert_eq!(metric.get("validator").unwrap().as_str(), Some("<5"));
        let providers = metric.get("providers").unwrap().as_seq().unwrap();
        let prom = providers[0].get("prometheus").unwrap();
        assert_eq!(prom.get("name").unwrap().as_str(), Some("search_error"));
        assert_eq!(
            prom.get("query").unwrap().as_str(),
            Some("request_errors{instance=\"search:80\"}")
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let doc =
            parse("# header\n\na: 1 # trailing\n\n# footer\nb: \"#not a comment\"\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("#not a comment"));
    }

    #[test]
    fn flow_sequences_of_scalars() {
        let doc = parse("thresholds: [3, 4]\nwords: [a, b]\n").unwrap();
        let thresholds = doc.get("thresholds").unwrap().as_seq().unwrap();
        assert_eq!(thresholds[0].as_i64(), Some(3));
        assert_eq!(thresholds[1].as_i64(), Some(4));
        assert_eq!(doc.get("words").unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn empty_document_is_null() {
        assert!(parse("").unwrap().is_null());
        assert!(parse("\n# just a comment\n").unwrap().is_null());
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate key"));
    }

    #[test]
    fn bad_indentation_is_reported_with_line_number() {
        let err = parse("a:\n  b: 1\n    c: 2\n").unwrap_err();
        match err {
            DslError::Syntax { line, .. } => assert_eq!(line, 3),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn non_mapping_content_is_rejected() {
        let err = parse("just a scalar line without colon\nanother\n").unwrap_err();
        assert!(matches!(err, DslError::Syntax { .. }));
    }

    #[test]
    fn unterminated_flow_sequence_is_rejected() {
        assert!(parse("xs: [1, 2\n").is_err());
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(YamlValue::Int(3).scalar_to_string(), Some("3".into()));
        assert_eq!(
            YamlValue::Bool(true).scalar_to_string(),
            Some("true".into())
        );
        assert_eq!(YamlValue::Float(2.5).scalar_to_string(), Some("2.5".into()));
        assert_eq!(
            YamlValue::Str("x".into()).scalar_to_string(),
            Some("x".into())
        );
        assert_eq!(YamlValue::Null.scalar_to_string(), None);
        let map = parse("a: 1\nb: two\nc:\n  - 1\n").unwrap();
        let strings = map.to_string_map();
        assert_eq!(strings.len(), 2);
        assert_eq!(strings["a"], "1");
        assert_eq!(strings["b"], "two");
    }

    #[test]
    fn null_sequence_items() {
        let doc = parse("xs:\n  -\n  - 2\n").unwrap();
        let xs = doc.get("xs").unwrap().as_seq().unwrap();
        assert!(xs[0].is_null());
        assert_eq!(xs[1].as_i64(), Some(2));
    }
}
