//! Typed result rows and hand-rolled CSV / JSON emitters.
//!
//! Experiment rows implement [`Record`] (column names + cell values); a
//! [`Table`] collects homogeneous records and serialises them without any
//! external dependency:
//!
//! * [`Table::to_csv`] — RFC-4180-style CSV with quoting, plus
//!   [`Table::from_csv`] for round-trip tests and downstream tooling.
//! * [`Table::to_json`] — an array of flat objects, plus [`Table::from_json`]
//!   covering the same flat subset.
//!
//! Floats are emitted via Rust's shortest-roundtrip formatting, so
//! `from_csv(to_csv(t)) == t` holds exactly — the property the emitter
//! round-trip test pins down.

use std::fmt::Write as _;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string cell.
    Str(String),
    /// A signed integer cell.
    Int(i64),
    /// An unsigned integer cell.
    UInt(u64),
    /// A float cell (must be finite to survive JSON round-trips).
    Float(f64),
    /// A boolean cell.
    Bool(bool),
    /// An absent value (e.g. a saturation point that never materialised).
    Null,
}

impl Value {
    /// The cell rendered the way it appears in a CSV field (unquoted).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Str(s) => s.clone(),
            Self::Int(i) => i.to_string(),
            Self::UInt(u) => u.to_string(),
            Self::Float(x) => format_float(*x),
            Self::Bool(b) => b.to_string(),
            Self::Null => String::new(),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Self::UInt(u as u64)
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Self {
        Self::UInt(u)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Self::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Self::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl From<Option<f64>> for Value {
    fn from(x: Option<f64>) -> Self {
        x.map_or(Self::Null, Self::Float)
    }
}

/// A typed experiment row that knows its column names and cell values.
pub trait Record {
    /// Column names, in emission order.
    fn columns() -> Vec<&'static str>;
    /// This row's cells, matching [`Record::columns`] positionally.
    fn values(&self) -> Vec<Value>;
}

/// A homogeneous collection of rows with named columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Row-major cells; every row has `columns.len()` entries.
    pub rows: Vec<Vec<Value>>,
}

/// Parse failures from [`Table::from_csv`] / [`Table::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with enough context to locate it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn parse_err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

/// Formats a float so that parsing the text recovers the exact bits
/// (Rust's default `Display` is shortest-roundtrip), with an explicit
/// decimal point so integers-valued floats stay recognisable as floats.
fn format_float(x: f64) -> String {
    if x.is_nan() {
        return "NaN".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    let s = x.to_string();
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

impl Table {
    /// An empty table with the given columns.
    #[must_use]
    pub fn with_columns(columns: &[&str]) -> Self {
        Self {
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Builds a table from typed records.
    pub fn from_records<R: Record>(records: &[R]) -> Self {
        Self {
            columns: R::columns().into_iter().map(str::to_string).collect(),
            rows: records.iter().map(Record::values).collect(),
        }
    }

    /// Appends a row; panics if the cell count does not match the columns.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    // -- CSV ---------------------------------------------------------------

    /// Serialises to CSV: a header row, then one line per data row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| csv_escape(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(csv_cell).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Parses CSV produced by [`Table::to_csv`].
    ///
    /// Unquoted cells are re-typed by inference: unsigned / signed integers,
    /// floats, booleans, empty = [`Value::Null`], anything else a string.
    /// Quoted cells are always strings — the emitter quotes every `Str` cell
    /// whose text would otherwise be mistaken for another type, which is what
    /// makes `from_csv(to_csv(t)) == t` hold exactly.
    ///
    /// # Errors
    ///
    /// Fails on ragged rows or malformed quoting.
    pub fn from_csv(text: &str) -> Result<Self, ParseError> {
        let mut lines = split_csv_records(text)?.into_iter();
        let Some(header) = lines.next() else {
            return parse_err("empty CSV input");
        };
        let mut table = Self {
            columns: header.into_iter().map(|c| c.text).collect(),
            rows: Vec::new(),
        };
        for (line_no, cells) in lines.enumerate() {
            if cells.len() != table.columns.len() {
                return parse_err(format!(
                    "row {} has {} cells, expected {}",
                    line_no + 2,
                    cells.len(),
                    table.columns.len()
                ));
            }
            table.rows.push(
                cells
                    .into_iter()
                    .map(|c| {
                        if c.quoted {
                            Value::Str(c.text)
                        } else {
                            infer_value(&c.text)
                        }
                    })
                    .collect(),
            );
        }
        Ok(table)
    }

    // -- JSON --------------------------------------------------------------

    /// Serialises to a JSON array of flat objects (one per row).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (j, (column, value)) in self.columns.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: ", json_string(column));
                out.push_str(&json_value(value));
            }
            out.push('}');
        }
        if !self.rows.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Parses the flat array-of-objects JSON produced by [`Table::to_json`].
    ///
    /// Column order is taken from the first object; later objects must use
    /// the same keys.
    ///
    /// # Errors
    ///
    /// Fails on anything that is not a flat array of scalar-valued objects
    /// with a consistent key set.
    pub fn from_json(text: &str) -> Result<Self, ParseError> {
        let mut parser = JsonParser::new(text);
        parser.skip_ws();
        let objects = parser.parse_array()?;
        parser.skip_ws();
        if !parser.at_end() {
            return parse_err("trailing characters after JSON array");
        }
        let mut table = Self::default();
        for (i, object) in objects.iter().enumerate() {
            if i == 0 {
                table.columns = object.iter().map(|(k, _)| k.clone()).collect();
            }
            let keys: Vec<&String> = object.iter().map(|(k, _)| k).collect();
            if keys.len() != table.columns.len()
                || keys.iter().zip(&table.columns).any(|(a, b)| *a != b)
            {
                return parse_err(format!("object {i} has a different key set"));
            }
            table
                .rows
                .push(object.iter().map(|(_, v)| v.clone()).collect());
        }
        Ok(table)
    }
}

// -- CSV helpers -----------------------------------------------------------

/// Encodes one row of cells as a single CSV record (no trailing newline),
/// using the same quoting rules as [`Table::to_csv`] — so
/// [`decode_csv_line`] recovers the exact typed cells.
#[must_use]
pub fn encode_csv_line(cells: &[Value]) -> String {
    let rendered: Vec<String> = cells.iter().map(csv_cell).collect();
    rendered.join(",")
}

/// Decodes one CSV record produced by [`encode_csv_line`] back into typed
/// cells (quoted cells stay strings, everything else is re-typed by the same
/// inference the table parser uses).
///
/// # Errors
///
/// Fails on malformed quoting or an empty line.
pub fn decode_csv_line(line: &str) -> Result<Vec<Value>, ParseError> {
    let mut records = split_csv_records(&format!("{line}\n"))?;
    if records.len() != 1 {
        return parse_err("expected exactly one CSV record");
    }
    Ok(records
        .remove(0)
        .into_iter()
        .map(|c| {
            if c.quoted {
                Value::Str(c.text)
            } else {
                infer_value(&c.text)
            }
        })
        .collect())
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Renders one data cell. `Str` cells whose text would be re-typed by
/// [`infer_value`] (e.g. "17", "true", "2.0", "") are force-quoted so the
/// parser can tell a string apart from the value it resembles.
fn csv_cell(value: &Value) -> String {
    let rendered = value.render();
    if let Value::Str(_) = value {
        let ambiguous = !matches!(infer_value(&rendered), Value::Str(_));
        if ambiguous {
            return format!("\"{}\"", rendered.replace('"', "\"\""));
        }
    }
    csv_escape(&rendered)
}

/// One parsed CSV cell plus whether it was quoted in the source (quoted
/// cells bypass type inference).
struct CsvCell {
    text: String,
    quoted: bool,
}

/// Splits CSV text into records of unescaped cells, honouring quotes.
fn split_csv_records(text: &str) -> Result<Vec<Vec<CsvCell>>, ParseError> {
    let mut records = Vec::new();
    let mut cells = Vec::new();
    let mut cell = String::new();
    let mut cell_quoted = false;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    cell.push('"');
                }
                '"' => in_quotes = false,
                other => cell.push(other),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    cell_quoted = true;
                }
                ',' => cells.push(CsvCell {
                    text: std::mem::take(&mut cell),
                    quoted: std::mem::take(&mut cell_quoted),
                }),
                '\r' => {}
                '\n' => {
                    cells.push(CsvCell {
                        text: std::mem::take(&mut cell),
                        quoted: std::mem::take(&mut cell_quoted),
                    });
                    records.push(std::mem::take(&mut cells));
                }
                other => cell.push(other),
            }
        }
    }
    if in_quotes {
        return parse_err("unterminated quoted CSV cell");
    }
    if !cell.is_empty() || cell_quoted || !cells.is_empty() {
        cells.push(CsvCell {
            text: cell,
            quoted: cell_quoted,
        });
        records.push(cells);
    }
    if !saw_any {
        return parse_err("empty CSV input");
    }
    Ok(records)
}

/// Re-types a CSV cell the way the emitter would have rendered it.
fn infer_value(cell: &str) -> Value {
    if cell.is_empty() {
        return Value::Null;
    }
    if cell == "true" {
        return Value::Bool(true);
    }
    if cell == "false" {
        return Value::Bool(false);
    }
    // Unsigned before signed so non-negative integers round-trip as UInt.
    if !cell.starts_with('+') {
        if let Ok(u) = cell.parse::<u64>() {
            return Value::UInt(u);
        }
    }
    if cell.starts_with('-') {
        if let Ok(i) = cell.parse::<i64>() {
            return Value::Int(i);
        }
    }
    if looks_like_float(cell) {
        if let Ok(x) = cell.parse::<f64>() {
            return Value::Float(x);
        }
    }
    match cell {
        "NaN" => Value::Float(f64::NAN),
        "inf" => Value::Float(f64::INFINITY),
        "-inf" => Value::Float(f64::NEG_INFINITY),
        other => Value::Str(other.to_string()),
    }
}

/// Only cells shaped like the float emitter's output ("1.5", "-2e-3") are
/// parsed as floats; free-form strings such as "1996 flood" are not.
fn looks_like_float(cell: &str) -> bool {
    let body = cell.strip_prefix('-').unwrap_or(cell);
    !body.is_empty()
        && body
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+'))
        && body.chars().next().is_some_and(|c| c.is_ascii_digit())
}

// -- JSON helpers ----------------------------------------------------------

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn json_value(value: &Value) -> String {
    match value {
        Value::Str(s) => json_string(s),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        // JSON has no NaN/inf literals; emit them as strings so output stays
        // valid JSON (the CSV path preserves them exactly).
        Value::Float(x) if !x.is_finite() => json_string(&format_float(*x)),
        Value::Float(x) => format_float(*x),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_string(),
    }
}

/// Minimal recursive-descent parser for the flat JSON `Table::to_json` emits.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            parse_err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn parse_array(&mut self) -> Result<Vec<Vec<(String, Value)>>, ParseError> {
        self.expect(b'[')?;
        let mut objects = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(objects);
        }
        loop {
            self.skip_ws();
            objects.push(self.parse_object()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(objects);
                }
                _ => return parse_err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Vec<(String, Value)>, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_scalar()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return parse_err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return parse_err("unterminated JSON string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return parse_err("dangling escape in JSON string");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return parse_err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| ParseError {
                                    message: "non-UTF8 \\u escape".to_string(),
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                                message: format!("bad \\u escape '{hex}'"),
                            })?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return parse_err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at pos - 1.
                    let start = self.pos - 1;
                    let text =
                        std::str::from_utf8(&self.bytes[start..]).map_err(|_| ParseError {
                            message: "invalid UTF-8 in JSON string".to_string(),
                        })?;
                    let c = text.chars().next().expect("non-empty string slice");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => parse_err(format!("unexpected scalar at byte {}", self.pos)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            parse_err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if is_float {
            match text.parse::<f64>() {
                Ok(x) => Ok(Value::Float(x)),
                Err(_) => parse_err(format!("bad number '{text}'")),
            }
        } else if text.starts_with('-') {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                Err(_) => parse_err(format!("bad integer '{text}'")),
            }
        } else {
            match text.parse::<u64>() {
                Ok(u) => Ok(Value::UInt(u)),
                Err(_) => parse_err(format!("bad integer '{text}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DemoRow {
        name: &'static str,
        nodes: usize,
        latency: f64,
        saturated: bool,
        point: Option<f64>,
    }

    impl Record for DemoRow {
        fn columns() -> Vec<&'static str> {
            vec!["name", "nodes", "latency", "saturated", "point"]
        }
        fn values(&self) -> Vec<Value> {
            vec![
                self.name.into(),
                self.nodes.into(),
                self.latency.into(),
                self.saturated.into(),
                self.point.into(),
            ]
        }
    }

    fn demo_table() -> Table {
        Table::from_records(&[
            DemoRow {
                name: "SF, \"quoted\"",
                nodes: 64,
                latency: 3.25,
                saturated: false,
                point: Some(62.5),
            },
            DemoRow {
                name: "mesh\nline2",
                nodes: 1296,
                latency: 11.0,
                saturated: true,
                point: None,
            },
        ])
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let table = demo_table();
        let parsed = Table::from_csv(&table.to_csv()).unwrap();
        assert_eq!(parsed, table);
    }

    #[test]
    fn csv_round_trip_keeps_ambiguous_strings_as_strings() {
        // Str cells whose text looks like another type must come back as Str
        // (the emitter quotes them), while real typed cells stay typed.
        let mut table = Table::with_columns(&["label", "count"]);
        for text in ["17", "true", "2.0", "", "-3", "NaN"] {
            table.push_row(vec![Value::Str(text.to_string()), Value::UInt(1)]);
        }
        table.push_row(vec![Value::Null, Value::UInt(2)]);
        let parsed = Table::from_csv(&table.to_csv()).unwrap();
        assert_eq!(parsed, table);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let table = demo_table();
        let parsed = Table::from_json(&table.to_json()).unwrap();
        assert_eq!(parsed, table);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let csv = demo_table().to_csv();
        assert!(csv.contains("\"SF, \"\"quoted\"\"\""));
        assert!(csv.lines().next().unwrap().starts_with("name,nodes"));
    }

    #[test]
    fn json_emits_null_for_missing_values() {
        let json = demo_table().to_json();
        assert!(json.contains("\"point\": null"));
        assert!(json.contains("\"nodes\": 64"));
    }

    #[test]
    fn ragged_csv_is_rejected() {
        assert!(Table::from_csv("a,b\n1\n").is_err());
        assert!(Table::from_csv("").is_err());
    }

    #[test]
    fn float_formatting_keeps_a_decimal_marker() {
        assert_eq!(format_float(2.0), "2.0");
        assert_eq!(format_float(0.1), "0.1");
        assert!(matches!(infer_value("2.0"), Value::Float(x) if x == 2.0));
        assert!(matches!(infer_value("17"), Value::UInt(17)));
        assert!(matches!(infer_value("-3"), Value::Int(-3)));
        assert!(matches!(infer_value("1996 flood"), Value::Str(_)));
    }
}
