//! Minimal CSV reader/writer (RFC-4180 quoting) so benchmark tables can be
//! exported for inspection and re-imported, without an external dependency.

use std::fmt;

use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// CSV parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A record has a different field count than the header.
    FieldCount {
        /// 1-based line number of the offending record.
        line: usize,
        /// Fields expected (from the header).
        expected: usize,
        /// Fields found.
        got: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line where the quote opened.
        line: usize,
    },
    /// The input had no header row.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::FieldCount {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::Empty => write!(f, "empty csv input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits CSV text into records of fields, honouring quotes and embedded
/// newlines inside quoted fields.
fn parse_records(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut quote_open_line = 1usize;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quote_open_line = line;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => { /* swallow; \n terminates */ }
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote {
            line: quote_open_line,
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any || records.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

/// Parses CSV text into a [`Table`]. The first record is the header; every
/// field is parsed with [`Value::parse`] (so numerics become numbers).
pub fn read_table(name: &str, input: &str) -> Result<Table, CsvError> {
    let records = parse_records(input)?;
    let header = &records[0];
    let schema = Schema::new(
        header
            .iter()
            .map(|h| (h.clone(), crate::schema::ColumnType::Text))
            .collect(),
    );
    let mut table = Table::new(name, schema);
    for (i, rec) in records[1..].iter().enumerate() {
        if rec.len() != header.len() {
            return Err(CsvError::FieldCount {
                line: i + 2,
                expected: header.len(),
                got: rec.len(),
            });
        }
        table.push_values(rec.iter().map(|f| Value::parse(f)).collect());
    }
    Ok(table)
}

/// Quotes a field if needed.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders a table as CSV text (header + rows).
pub fn write_table(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.schema().names().map(quote).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for t in table.tuples() {
        let row: Vec<String> = t.values().iter().map(|v| quote(&v.render())).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let csv = "title,brand,price\niphone x,apple,999\ngalaxy,samsung,720.5\n";
        let t = read_table("p", csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).get(2), &Value::Int(999));
        assert_eq!(t.row(1).get(2), &Value::Float(720.5));
        let out = write_table(&t);
        let t2 = read_table("p", &out).unwrap();
        assert_eq!(t2.row(0).values(), t.row(0).values());
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n";
        let t = read_table("q", csv).unwrap();
        assert_eq!(t.row(0).get(0), &Value::text("hello, world"));
        assert_eq!(t.row(0).get(1), &Value::text("say \"hi\""));
        // writer re-quotes
        let out = write_table(&t);
        assert!(out.contains("\"hello, world\""));
        let t2 = read_table("q", &out).unwrap();
        assert_eq!(t2.row(0).values(), t.row(0).values());
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let csv = "a\n\"line1\nline2\"\n";
        let t = read_table("n", csv).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).get(0), &Value::text("line1\nline2"));
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let csv = "a,b\n1,2\n3\n";
        match read_table("m", csv) {
            Err(CsvError::FieldCount {
                line,
                expected,
                got,
            }) => {
                assert_eq!((line, expected, got), (3, 2, 1));
            }
            other => panic!("expected FieldCount, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(matches!(
            read_table("u", "a\n\"oops\n"),
            Err(CsvError::UnterminatedQuote { .. })
        ));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(read_table("e", "").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn nulls_roundtrip_as_empty() {
        let csv = "a,b\n,x\n";
        let t = read_table("n", csv).unwrap();
        assert!(t.row(0).get(0).is_null());
        let out = write_table(&t);
        assert!(out.ends_with(",x\n"));
    }

    #[test]
    fn crlf_line_endings() {
        let csv = "a,b\r\n1,2\r\n";
        let t = read_table("crlf", csv).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).get(0), &Value::Int(1));
    }
}
